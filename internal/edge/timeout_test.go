package edge

import (
	"bytes"
	"net"
	"testing"
	"time"

	"websnap/internal/netem"
	"websnap/internal/protocol"
)

// encodePingFrame serializes one MsgPing frame carrying bodyLen filler
// bytes, so a test can replay it byte-by-byte over a shaped link.
func encodePingFrame(t *testing.T, bodyLen int) []byte {
	t.Helper()
	msg, err := protocol.Encode(protocol.MsgPing, protocol.PingHeader{}, make([]byte, bodyLen))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := protocol.Write(&buf, msg); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSlowUploadSurvivesIdleTimeout is the regression test for the
// connection-timeout bug: a multi-KB frame trickling in over a slow link
// takes far longer than the idle timeout end to end, but because bytes keep
// arriving the per-read transfer deadline keeps extending and the server
// must serve it. Before the fix the read deadline was set once per frame,
// so any transfer slower than IdleTimeout was cut off mid-frame.
func TestSlowUploadSurvivesIdleTimeout(t *testing.T) {
	const idle = 150 * time.Millisecond
	_, addr := startServer(t, Config{Installed: true, IdleTimeout: idle})

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()

	// ~16 KB at 200 kbit/s ≈ 0.65 s of wire time, >4x the idle timeout.
	// netem paces per Write call, so send 512-byte chunks to produce a
	// true trickle with ~20 ms gaps — each gap well under the timeout,
	// the whole transfer well over it.
	frame := encodePingFrame(t, 16<<10)
	shaped := netem.Shape(raw, netem.Profile{BandwidthBitsPerSec: 200e3})
	start := time.Now()
	for len(frame) > 0 {
		n := 512
		if n > len(frame) {
			n = len(frame)
		}
		if _, err := shaped.Write(frame[:n]); err != nil {
			t.Fatalf("trickled write failed after %v: %v", time.Since(start), err)
		}
		frame = frame[n:]
	}
	resp, err := protocol.Read(raw)
	if err != nil {
		t.Fatalf("no response to slow upload: %v", err)
	}
	if resp.Type != protocol.MsgPong {
		t.Fatalf("response type = %s, want %s", resp.Type, protocol.MsgPong)
	}
	if elapsed := time.Since(start); elapsed <= idle {
		t.Fatalf("upload finished in %v <= idle timeout %v; test exercised nothing", elapsed, idle)
	}
}

// TestStalledMidFrameIsKilled is the companion boundary: a peer that starts
// a frame and then stops sending entirely must still be cut off once the
// transfer deadline passes — extending deadlines on arriving bytes must not
// turn into waiting forever on a dead peer.
func TestStalledMidFrameIsKilled(t *testing.T) {
	const idle = 120 * time.Millisecond
	_, addr := startServer(t, Config{Installed: true, IdleTimeout: idle})

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()

	frame := encodePingFrame(t, 1<<10)
	if _, err := raw.Write(frame[:10]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(4 * idle) // stall mid-frame past the transfer deadline

	// The server must have dropped the connection: finishing the frame and
	// waiting for a reply cannot produce a Pong. (The tail write may
	// succeed locally before the RST is observed, so only the read result
	// counts.)
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := raw.Write(frame[10:]); err == nil {
		if _, err := protocol.Read(raw); err == nil {
			t.Fatal("server answered a frame that stalled past the transfer deadline")
		}
	}
}

// TestTransferTimeoutSplitsFromIdle checks the two knobs are independent: a
// generous idle timeout with a tight transfer timeout still cuts off a
// mid-frame stall quickly, while the connection may sit idle between frames
// far longer than the transfer timeout.
func TestTransferTimeoutSplitsFromIdle(t *testing.T) {
	const transfer = 100 * time.Millisecond
	_, addr := startServer(t, Config{
		Installed:       true,
		IdleTimeout:     5 * time.Second,
		TransferTimeout: transfer,
	})

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()

	// Idle (no frame started) longer than the transfer timeout: fine.
	time.Sleep(3 * transfer)
	frame := encodePingFrame(t, 0)
	if _, err := raw.Write(frame); err != nil {
		t.Fatal(err)
	}
	if resp, err := protocol.Read(raw); err != nil || resp.Type != protocol.MsgPong {
		t.Fatalf("ping after inter-frame idle: resp=%v err=%v", resp.Type, err)
	}

	// Mid-frame stall longer than the transfer timeout: killed.
	big := encodePingFrame(t, 1<<10)
	if _, err := raw.Write(big[:10]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(4 * transfer)
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := raw.Write(big[10:]); err == nil {
		if _, err := protocol.Read(raw); err == nil {
			t.Fatal("tight transfer timeout did not kill a mid-frame stall")
		}
	}
}

// TestBufferedFrameStartIsOnTransferClock: the server reads frames through
// a buffer, so the first bytes of a frame can arrive in the same segment as
// the tail of the one before and sit in the buffer before that frame is
// read. Such a frame has started: if the rest of it stalls, the transfer
// timeout cuts it off, not the far longer idle timeout.
func TestBufferedFrameStartIsOnTransferClock(t *testing.T) {
	const transfer = 100 * time.Millisecond
	_, addr := startServer(t, Config{
		Installed:       true,
		IdleTimeout:     10 * time.Second,
		TransferTimeout: transfer,
	})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()

	// One write: a whole ping, then the next frame's prefix.
	next := encodePingFrame(t, 1<<10)
	if _, err := raw.Write(append(encodePingFrame(t, 0), next[:10]...)); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	if resp, err := protocol.Read(raw); err != nil || resp.Type != protocol.MsgPong {
		t.Fatalf("first ping: resp=%v err=%v", resp.Type, err)
	}
	time.Sleep(4 * transfer) // stall mid-frame past the transfer deadline
	if _, err := raw.Write(next[10:]); err == nil {
		if _, err := protocol.Read(raw); err == nil {
			t.Fatal("a frame whose prefix came with the previous frame outlived the transfer timeout")
		}
	}
}

// TestDrainedBufferIsOnIdleClock: once a frame has been read and nothing of
// the next one is buffered, the connection is idle — it may sit longer than
// the transfer timeout between frames, and is closed once it sits past the
// idle timeout.
func TestDrainedBufferIsOnIdleClock(t *testing.T) {
	const transfer, idle = 100 * time.Millisecond, time.Second
	_, addr := startServer(t, Config{Installed: true, IdleTimeout: idle, TransferTimeout: transfer})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()

	ping := encodePingFrame(t, 0)
	for i := 0; i < 2; i++ {
		if _, err := raw.Write(ping); err != nil {
			t.Fatal(err)
		}
		raw.SetReadDeadline(time.Now().Add(2 * time.Second))
		if resp, err := protocol.Read(raw); err != nil || resp.Type != protocol.MsgPong {
			t.Fatalf("ping %d: resp=%v err=%v", i, resp.Type, err)
		}
		time.Sleep(3 * transfer) // idle between frames, past the transfer timeout
	}
	time.Sleep(idle + 3*transfer)
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := raw.Write(ping); err == nil {
		if _, err := protocol.Read(raw); err == nil {
			t.Fatal("a connection idle past the idle timeout was still served")
		}
	}
}
