package client

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"websnap/internal/edge"
	"websnap/internal/mlapp"
	"websnap/internal/netem"
	"websnap/internal/protocol"
	"websnap/internal/snapshot"
	"websnap/internal/testutil"
	"websnap/internal/webapp"
)

// breakConn poisons conn the way a mid-frame I/O failure does.
func breakConn(conn *Conn) {
	conn.mu.Lock()
	rw := conn.rw
	conn.mu.Unlock()
	conn.failPending(rw, ErrConnBroken)
}

// TestConnSharedByConcurrentStreams pins that a freshly dialed Conn is
// multiplexed with nothing to negotiate: many goroutines share it for
// interleaved round trips on the single underlying connection.
func TestConnSharedByConcurrentStreams(t *testing.T) {
	testutil.LeakCheck(t)
	addr := startEdge(t, edge.Config{Installed: true, Workers: 2, QueueDepth: 64})
	conn := dialEdge(t, addr)

	model := tinyModel(t)
	if err := conn.PreSendModel("mux-app", "tiny", model); err != nil {
		t.Fatal(err)
	}
	app, err := mlapp.NewFullApp("mux-app", "tiny", model, []string{"x", "y", "z"})
	if err != nil {
		t.Fatal(err)
	}
	if err := mlapp.LoadImage(app, mlapp.SyntheticImage(3*16*16, 1)); err != nil {
		t.Fatal(err)
	}
	app.DispatchEvent(webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick})
	snap, err := snapshot.Capture(app, snapshot.Options{})
	if err != nil {
		t.Fatal(err)
	}
	encoded, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}

	const streams = 24
	errs := make(chan error, streams)
	var wg sync.WaitGroup
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%3 == 0 {
				if _, _, err := conn.Ping(); err != nil {
					errs <- fmt.Errorf("stream %d ping: %w", i, err)
				}
				return
			}
			result, _, err := conn.OffloadSnapshot("mux-app", encoded, i%2 == 0)
			if err != nil {
				errs <- fmt.Errorf("stream %d offload: %w", i, err)
				return
			}
			if len(result) == 0 {
				errs <- fmt.Errorf("stream %d: empty result", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMuxTimeoutBreaksConn pins the timeout contract on a stream: a
// response that never arrives fails the request with
// ErrConnBroken and poisons the Conn — the frame stream can no longer be
// trusted by any sibling stream.
func TestMuxTimeoutBreaksConn(t *testing.T) {
	testutil.LeakCheck(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	requests := make(chan struct{}, 8)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		for {
			if _, err := protocol.Read(c); err != nil {
				return
			}
			// Swallow every request.
			requests <- struct{}{}
		}
	}()

	conn, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetRequestTimeout(100 * time.Millisecond)

	if _, _, err := conn.Ping(); !errors.Is(err, ErrConnBroken) {
		t.Fatalf("timed-out mux request returned %v, want ErrConnBroken", err)
	}
	if !conn.Broken() {
		t.Fatal("Conn not marked broken after a mux request timeout")
	}
	if _, _, err := conn.Ping(); !errors.Is(err, ErrConnBroken) {
		t.Fatalf("request on a broken mux Conn returned %v, want fail-fast ErrConnBroken", err)
	}
	select {
	case <-requests:
	case <-time.After(time.Second):
		t.Fatal("server never saw the swallowed request")
	}
}

// TestMuxRedialHealsSharedConn pins recovery on a shared Conn: after a
// failure breaks the connection, one Redial restores service for every
// stream, and redundant concurrent Redials are harmless.
func TestMuxRedialHealsSharedConn(t *testing.T) {
	testutil.LeakCheck(t)
	addr := startEdge(t, edge.Config{Installed: true, Workers: 2, QueueDepth: 16})
	conn := dialEdge(t, addr)
	breakConn(conn)

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := conn.Redial(); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if conn.Broken() {
		t.Fatal("Conn still broken after Redial")
	}
	if installed, _, err := conn.Ping(); err != nil || !installed {
		t.Fatalf("Conn unusable after Redial: installed=%v err=%v", installed, err)
	}
}

// TestSiblingResponseDuringPacedUpload is the regression test for the
// reader being locked out by a writer: while stream B's upload is still
// being paced onto a slow link, stream A's response must reach A. Before the
// fix the frame write held the same mutex the reader needs to route a
// response, so A waited for B's whole upload.
func TestSiblingResponseDuringPacedUpload(t *testing.T) {
	testutil.LeakCheck(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// 1 MB at 30 Mbit/s is paced over ~270 ms.
	link := netem.Profile{BandwidthBitsPerSec: 30e6}
	body := make([]byte, 1<<20)
	pacing := link.TransferTime(int64(len(body)))

	gotPing := make(chan struct{})
	pongAt := make(chan time.Time, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		ping, err := protocol.Read(c)
		if err != nil {
			return
		}
		close(gotPing)
		// Hold A's pong until B's frame has started arriving, i.e. B's
		// write is in progress; then answer A before reading B's body.
		var frameStart [18]byte
		if _, err := io.ReadFull(c, frameStart[:]); err != nil {
			return
		}
		pong, _ := protocol.Encode(protocol.MsgPong,
			protocol.PongHeader{Installed: true, Seq: seqOf(ping)}, nil)
		if protocol.Write(c, pong) != nil {
			return
		}
		pongAt <- time.Now()
		upload, err := protocol.Read(io.MultiReader(bytes.NewReader(frameStart[:]), c))
		if err != nil {
			return
		}
		refuse, _ := protocol.Encode(protocol.MsgError,
			protocol.ErrorHeader{Message: "upload refused", Seq: seqOf(upload)}, nil)
		protocol.Write(c, refuse) //nolint:errcheck // the client may already be gone
	}()

	conn, err := DialWrapped(ln.Addr().String(), func(c net.Conn) net.Conn {
		return netem.Shape(c, link)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetRequestTimeout(10 * time.Second)

	pinged := make(chan time.Time, 1)
	go func() {
		if _, _, err := conn.Ping(); err != nil {
			t.Errorf("stream A ping: %v", err)
		}
		pinged <- time.Now()
	}()
	<-gotPing
	if _, _, err := conn.OffloadSnapshot("b", body, false); !errors.Is(err, ErrServerError) {
		t.Fatalf("stream B upload: err = %v, want the server's refusal", err)
	}
	if lag := (<-pinged).Sub(<-pongAt); lag > pacing/2 {
		t.Errorf("stream A's response reached it %v after the server sent it; it waited out stream B's %v paced upload", lag, pacing)
	}
}

// TestWriteToStalledPeerTimesOut is the regression test for the unbounded
// frame write: a peer that stops reading must fail the request at the
// request timeout, not block the writer (and every sibling queued behind
// it) forever.
func TestWriteToStalledPeerTimesOut(t *testing.T) {
	testutil.LeakCheck(t)
	clientSide, serverSide := net.Pipe() // unbuffered: an unread write blocks
	defer serverSide.Close()
	conn := NewConn(clientSide)
	defer conn.Close()
	conn.SetRequestTimeout(100 * time.Millisecond)
	start := time.Now()
	if _, _, err := conn.Ping(); !errors.Is(err, ErrConnBroken) {
		t.Fatalf("write to a stalled peer returned %v, want ErrConnBroken", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("stalled write took %v, want ~100ms", elapsed)
	}
	if !conn.Broken() {
		t.Error("Conn not marked broken after a timed-out write")
	}
}
