package client

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"websnap/internal/edge"
	"websnap/internal/obs"
	"websnap/internal/protocol"
	"websnap/internal/snapshot"
)

// pongFrameBytes serializes one valid MsgPong frame answering ping.
func pongFrameBytes(t *testing.T, ping protocol.Message) []byte {
	t.Helper()
	msg, err := protocol.Encode(protocol.MsgPong, protocol.PongHeader{Installed: true, Seq: seqOf(ping)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := protocol.Write(&buf, msg); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMidFrameStallBreaksConn is the regression test for the round-trip
// desync bug: a response that stalls mid-frame must poison the Conn — before
// the fix the next request would read the stale frame's leftover bytes as a
// fresh frame header and decode garbage. Now the Conn is marked broken,
// fails fast, and recovers via Redial.
func TestMidFrameStallBreaksConn(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var connIdx atomic.Int64
	stall := make(chan struct{})
	t.Cleanup(func() { close(stall) })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			idx := connIdx.Add(1)
			go func(c net.Conn, idx int64) {
				defer c.Close()
				for {
					ping, err := protocol.Read(c)
					if err != nil {
						return
					}
					pong := pongFrameBytes(t, ping)
					if idx == 1 {
						// First connection: answer with a torn frame —
						// a valid prefix, then silence.
						c.Write(pong[:10]) //nolint:errcheck
						<-stall
						return
					}
					if _, err := c.Write(pong); err != nil {
						return
					}
				}
			}(c, idx)
		}
	}()

	conn, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetRequestTimeout(200 * time.Millisecond)

	// First request: the response stalls mid-frame, the deadline expires,
	// and the Conn must come back marked broken.
	if _, _, err := conn.Ping(); !errors.Is(err, ErrConnBroken) {
		t.Fatalf("ping against stalled frame: err = %v, want ErrConnBroken", err)
	}
	if !conn.Broken() {
		t.Fatal("Conn not marked broken after mid-frame stall")
	}

	// Subsequent requests fail fast without touching the socket.
	start := time.Now()
	if _, _, err := conn.Ping(); !errors.Is(err, ErrConnBroken) {
		t.Fatalf("ping on broken conn: err = %v, want ErrConnBroken", err)
	}
	if fast := time.Since(start); fast > 50*time.Millisecond {
		t.Errorf("broken conn did not fail fast: %v", fast)
	}

	// Redial recovers in place.
	if err := conn.Redial(); err != nil {
		t.Fatalf("redial: %v", err)
	}
	if conn.Broken() {
		t.Error("Broken() still true after successful redial")
	}
	installed, _, err := conn.Ping()
	if err != nil {
		t.Fatalf("ping after redial: %v", err)
	}
	if !installed {
		t.Error("pong after redial lost the install flag")
	}
}

// TestWrappedConnCannotRedial: NewConn wraps a foreign socket, so there is
// no address to redial; the error must still identify the broken state.
func TestWrappedConnCannotRedial(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	conn := NewConn(a)
	if err := conn.Redial(); !errors.Is(err, ErrConnBroken) {
		t.Errorf("wrapped redial err = %v, want ErrConnBroken", err)
	}
}

// tearingProxy relays connections to backend frame by frame. A response
// frame that tear picks (by its connection's 1-based index and the frame
// itself) is cut off after 20 bytes — mid frame header — and the connection
// hung up; a frame it passes goes on as tear left it, so a tamperer rewrites
// *resp and returns false. Requests always pass.
func tearingProxy(t *testing.T, backend string, tear func(conn int64, resp *protocol.Message) bool) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var connIdx atomic.Int64
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			b, err := net.Dial("tcp", backend)
			if err != nil {
				c.Close()
				return
			}
			go func(c, b net.Conn, idx int64) {
				defer c.Close()
				defer b.Close()
				go io.Copy(b, c) //nolint:errcheck // client → backend relays fully
				for {
					resp, err := protocol.Read(b)
					if err != nil {
						return
					}
					if tear(idx, &resp) {
						var frame bytes.Buffer
						protocol.Write(&frame, resp) //nolint:errcheck // a bytes.Buffer
						c.Write(frame.Bytes()[:20])  //nolint:errcheck
						return
					}
					if err := protocol.Write(c, resp); err != nil {
						return
					}
				}
			}(c, b, connIdx.Add(1))
		}
	}()
	return ln.Addr().String()
}

// TestOffloaderRedialAfterTornResponse drives the full recovery path
// end-to-end through a flaky proxy in front of a real edge server: the first
// proxied connection tears the server's first response and closes, so the
// offload fails with a broken conn; the offloader must redial (landing on a
// clean proxy connection), finish the event locally, and offload normally on
// the next event.
func TestOffloaderRedialAfterTornResponse(t *testing.T) {
	backend := startEdge(t, edge.Config{Installed: true})
	proxy := tearingProxy(t, backend, func(conn int64, _ *protocol.Message) bool { return conn == 1 })

	conn := dialEdge(t, proxy)
	off, app := newOffloadedApp(t, conn, Options{
		LocalFallback: true,
	})
	off.StartPreSend()
	// The pre-send rides the torn first proxy connection and fails; the
	// offloader recovers via redial on the offload path below.
	off.WaitForAcks() //nolint:errcheck

	// First event: the conn is broken from the torn pre-send (or breaks on
	// this offload), the offloader redials and falls back locally.
	if got := classifyOnce(t, off, app, 11); got == "" {
		t.Fatal("no result from fallback execution")
	}
	st := off.Stats()
	if st.Redials != 1 {
		t.Errorf("redials = %d, want 1", st.Redials)
	}
	if st.LocalFallbacks != 1 {
		t.Errorf("local fallbacks = %d, want 1", st.LocalFallbacks)
	}
	if st.Offloads != 0 {
		t.Errorf("offloads = %d, want 0 after torn response", st.Offloads)
	}
	if conn.Broken() {
		t.Error("conn still broken after redial")
	}

	// Second event: the redialed conn is clean, offloading works again.
	if got := classifyOnce(t, off, app, 12); got == "" {
		t.Fatal("no result from offloaded execution")
	}
	if st := off.Stats(); st.Offloads != 1 {
		t.Errorf("offloads after redial = %d, want 1", st.Offloads)
	}
}

// TestLostResultFallsBackOnce: the server executes an offload, the result is
// lost on the wire, and the client finishes that event on the device — once.
// Nothing of the lost request lingers at either end: the next event offloads
// as usual, there is one decision per event, and the final state is that of
// a run with no fault.
func TestLostResultFallsBackOnce(t *testing.T) {
	run := func(lose bool) (state []byte, st Stats, decisions int64) {
		backend := startEdge(t, edge.Config{Installed: true, AdvertiseAddr: "fleet-self:0"})
		// The result to lose is the second.
		var results atomic.Int64
		proxy := tearingProxy(t, backend, func(conn int64, resp *protocol.Message) bool {
			return lose && conn == 1 && resp.Type == protocol.MsgResultDelta && results.Add(1) == 2
		})
		auditor := obs.NewAuditor(obs.AuditorOptions{Keep: 16})
		off, app := newOffloadedApp(t, dialEdge(t, proxy), Options{
			LocalFallback: true,
			Audit:         auditor,
		})
		off.StartPreSend()
		if err := off.WaitForAcks(); err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= 3; seed++ {
			if got := classifyOnce(t, off, app, seed); got == "" {
				t.Fatalf("lose=%v: no result for event %d", lose, seed)
			}
		}
		final, err := snapshot.Capture(app, snapshot.Options{DefaultModelPolicy: snapshot.ModelOmit})
		if err != nil {
			t.Fatal(err)
		}
		final.Models = nil
		if state, err = final.Encode(); err != nil {
			t.Fatal(err)
		}
		return state, off.Stats(), auditor.Total()
	}

	want, clean, _ := run(false)
	if clean.Offloads != 3 || clean.LocalFallbacks != 0 {
		t.Fatalf("no-fault run: %+v, want three offloads", clean)
	}
	got, st, decisions := run(true)
	if st.LocalFallbacks != 1 || st.Redials != 1 {
		t.Errorf("lost result: local fallbacks = %d, redials = %d, want 1 and 1", st.LocalFallbacks, st.Redials)
	}
	if st.Offloads != 2 {
		t.Errorf("offloads = %d, want 2 (the events before and after the lost result)", st.Offloads)
	}
	if decisions != 3 {
		t.Errorf("audit decisions = %d, want 3 (one per event)", decisions)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("final state (%d B) differs from the no-fault run's (%d B)", len(got), len(want))
	}
}

// uncomparableConn is a socket wrapper held by value whose func field makes
// it uncomparable: == between two net.Conn values holding it panics.
type uncomparableConn struct {
	net.Conn
	onClose func()
}

// TestUncomparableWrapperFailsCleanly: DialWrapped takes any wrapper, one
// that returns an uncomparable value too. When the socket dies under
// pending requests each gets ErrConnBroken, and the Conn redials and closes,
// with no panic in the reader goroutine.
func TestUncomparableWrapperFailsCleanly(t *testing.T) {
	const pending = 3
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var connIdx atomic.Int64
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			idx := connIdx.Add(1)
			go func(c net.Conn) {
				defer c.Close()
				for n := 1; ; n++ {
					ping, err := protocol.Read(c)
					if err != nil {
						return
					}
					if idx == 1 {
						if n == pending {
							return // every request is in: hang up on them
						}
						continue
					}
					if _, err := c.Write(pongFrameBytes(t, ping)); err != nil {
						return
					}
				}
			}(c)
		}
	}()

	conn, err := DialWrapped(ln.Addr().String(), func(c net.Conn) net.Conn {
		return uncomparableConn{Conn: c, onClose: func() {}}
	})
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, pending)
	for i := 0; i < pending; i++ {
		go func() {
			_, _, err := conn.Ping()
			errs <- err
		}()
	}
	for i := 0; i < pending; i++ {
		if err := <-errs; !errors.Is(err, ErrConnBroken) {
			t.Errorf("pending ping: err = %v, want ErrConnBroken", err)
		}
	}
	if !conn.Broken() {
		t.Fatal("Conn not marked broken after the peer hung up")
	}
	if err := conn.Redial(); err != nil {
		t.Fatalf("redial: %v", err)
	}
	if _, _, err := conn.Ping(); err != nil {
		t.Fatalf("ping after redial: %v", err)
	}
	if err := conn.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
}
