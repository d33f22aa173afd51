package client

import (
	"encoding/json"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"websnap/internal/mlapp"
	"websnap/internal/models"
	"websnap/internal/nn"
	"websnap/internal/protocol"
	"websnap/internal/webapp"
)

func tinyModel(t *testing.T) *nn.Network {
	t.Helper()
	m, err := models.BuildTinyNet("tiny", 3)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func tinyApp(t *testing.T) *webapp.App {
	t.Helper()
	app, err := mlapp.NewFullApp("a", "tiny", tinyModel(t), []string{"x", "y", "z"})
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// seqOf returns the stream ID of a request, which a fake server must echo
// on its response.
func seqOf(req protocol.Message) uint64 {
	var env protocol.MuxEnvelope
	_ = json.Unmarshal(req.Header, &env)
	return env.Seq
}

// scriptedServer answers each incoming request with the next scripted
// response ("echo-error", "ack", "wrong-type", "garbage", "close").
func scriptedServer(t *testing.T, script ...string) *Conn {
	t.Helper()
	clientSide, serverSide := net.Pipe()
	go func() {
		defer serverSide.Close()
		for _, action := range script {
			req, err := protocol.Read(serverSide)
			if err != nil {
				return
			}
			seq := seqOf(req)
			switch action {
			case "ack":
				msg, _ := protocol.Encode(protocol.MsgAck,
					protocol.AckHeader{AppID: "a", ModelName: "tiny", Seq: seq}, nil)
				protocol.Write(serverSide, msg)
			case "echo-error":
				msg, _ := protocol.Encode(protocol.MsgError,
					protocol.ErrorHeader{Message: "scripted failure", Seq: seq}, nil)
				protocol.Write(serverSide, msg)
			case "wrong-type":
				msg, _ := protocol.Encode(protocol.MsgInstallDone,
					protocol.InstallDoneHeader{Seq: seq}, nil)
				protocol.Write(serverSide, msg)
			case "wrong-name-ack":
				msg, _ := protocol.Encode(protocol.MsgAck,
					protocol.AckHeader{AppID: "a", ModelName: "other", Seq: seq}, nil)
				protocol.Write(serverSide, msg)
			case "garbage":
				serverSide.Write([]byte("this is not a frame at all......"))
			case "close":
				return
			}
		}
	}()
	conn := NewConn(clientSide)
	t.Cleanup(func() { conn.Close() })
	return conn
}

func TestNewOffloaderValidation(t *testing.T) {
	app := tinyApp(t)
	conn := scriptedServer(t)
	if _, err := NewOffloader(nil, conn, Options{}); err == nil {
		t.Error("nil app should fail")
	}
	if _, err := NewOffloader(app, nil, Options{}); err == nil {
		t.Error("nil conn should fail")
	}
	if _, err := NewOffloader(app, conn, Options{
		Models:        []ModelToSend{{Name: "m", Net: tinyModel(t)}},
		ExcludeModels: []string{"m"},
	}); err == nil {
		t.Error("model both pre-sent and excluded should fail")
	}
}

func TestShouldOffload(t *testing.T) {
	off, err := NewOffloader(tinyApp(t), scriptedServer(t), Options{
		OffloadEventTypes: []string{"click", "front_complete"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !off.ShouldOffload(webapp.Event{Type: "click"}) {
		t.Error("click should offload")
	}
	if off.ShouldOffload(webapp.Event{Type: "load"}) {
		t.Error("load should not offload")
	}
}

func TestStepEmptyQueue(t *testing.T) {
	off, err := NewOffloader(tinyApp(t), scriptedServer(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	processed, err := off.Step()
	if err != nil || processed {
		t.Errorf("empty queue: processed=%v err=%v", processed, err)
	}
}

func TestLocalEventsRunLocally(t *testing.T) {
	app := tinyApp(t)
	off, err := NewOffloader(app, scriptedServer(t), Options{
		OffloadEventTypes: []string{"click"},
	})
	if err != nil {
		t.Fatal(err)
	}
	app.DispatchEvent(webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventLoad,
		Payload: mlapp.SyntheticImage(3*16*16, 1)})
	processed, err := off.Step()
	if err != nil || !processed {
		t.Fatalf("load step: processed=%v err=%v", processed, err)
	}
	if _, ok := app.Global(mlapp.GlobalImage); !ok {
		t.Error("load handler did not run locally")
	}
	if st := off.Stats(); st.Offloads != 0 {
		t.Error("load must not offload")
	}
}

// TestServerErrorPropagates: the server refuses the inline pre-send — its
// key offer, then its upload — and the refusal reaches the caller as the
// server's error.
func TestServerErrorPropagates(t *testing.T) {
	app := tinyApp(t)
	off, err := NewOffloader(app, scriptedServer(t, "echo-error", "echo-error"), Options{
		OffloadEventTypes: []string{"click"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mlapp.LoadImage(app, mlapp.SyntheticImage(3*16*16, 1)); err != nil {
		t.Fatal(err)
	}
	app.DispatchEvent(webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick})
	_, err = off.Step()
	if !errors.Is(err, ErrServerError) {
		t.Errorf("err = %v, want ErrServerError", err)
	}
	if !strings.Contains(err.Error(), "scripted failure") {
		t.Errorf("err = %v, want the server's message", err)
	}
}

func TestUnexpectedResponseType(t *testing.T) {
	app := tinyApp(t)
	// The app has one model, not yet acked, so Offload first pre-sends
	// (gets an ack) and then ships the snapshot (gets a wrong-type
	// response).
	off, err := NewOffloader(app, scriptedServer(t, "ack", "wrong-type"), Options{
		OffloadEventTypes: []string{"click"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mlapp.LoadImage(app, mlapp.SyntheticImage(3*16*16, 1)); err != nil {
		t.Fatal(err)
	}
	app.DispatchEvent(webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick})
	if _, err = off.Step(); err == nil || !strings.Contains(err.Error(), "unexpected response") {
		t.Errorf("err = %v, want unexpected-response error", err)
	}
}

func TestGarbageResponse(t *testing.T) {
	conn := scriptedServer(t, "garbage")
	_, err := conn.PreSendModel("a", "tiny", tinyModel(t), "")
	if err == nil {
		t.Error("garbage frame should fail")
	}
}

func TestPreSendWrongAckName(t *testing.T) {
	conn := scriptedServer(t, "wrong-name-ack")
	_, err := conn.PreSendModel("a", "tiny", tinyModel(t), "")
	if err == nil || !strings.Contains(err.Error(), "ACK names") {
		t.Errorf("err = %v, want ACK-name mismatch", err)
	}
}

func TestWaitForAcksAggregatesErrors(t *testing.T) {
	app := tinyApp(t)
	off, err := NewOffloader(app, scriptedServer(t, "echo-error"), Options{
		Models: []ModelToSend{{Name: "tiny", Net: tinyModel(t)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	off.StartPreSend()
	off.StartPreSend() // idempotent
	if err := off.WaitForAcks(); err == nil {
		t.Error("failed pre-send should surface from WaitForAcks")
	}
	if off.ModelAcked("tiny") {
		t.Error("failed model must not be marked acked")
	}
}

func TestRequestTimeout(t *testing.T) {
	// A server that accepts the request but never answers.
	clientSide, serverSide := net.Pipe()
	go func() {
		defer serverSide.Close()
		protocol.Read(serverSide) //nolint:errcheck // drain the request...
		// ...then stay silent until the client gives up and closes.
		buf := make([]byte, 1)
		for {
			if _, err := serverSide.Read(buf); err != nil {
				return
			}
		}
	}()
	conn := NewConn(clientSide)
	t.Cleanup(func() { conn.Close() })
	conn.SetRequestTimeout(100 * time.Millisecond)
	start := time.Now()
	_, err := conn.PreSendModel("a", "tiny", tinyModel(t), "")
	if err == nil {
		t.Fatal("hung server should time out")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("timeout took %v, want ~100ms", elapsed)
	}
}

func TestRunQuiesceError(t *testing.T) {
	app := tinyApp(t)
	off, err := NewOffloader(app, scriptedServer(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Two pending local events, budget of one.
	app.DispatchEvent(webapp.Event{Target: "x", Type: "noop"})
	app.DispatchEvent(webapp.Event{Target: "x", Type: "noop"})
	if _, err := off.Run(1); err == nil {
		t.Error("Run under budget should report non-quiescence")
	}
}

func TestOverloadedErrorAndLoadHint(t *testing.T) {
	clientSide, serverSide := net.Pipe()
	go func() {
		defer serverSide.Close()
		req, err := protocol.Read(serverSide)
		if err != nil {
			return
		}
		msg, _ := protocol.Encode(protocol.MsgError, protocol.ErrorHeader{
			Message:    "queue full",
			Seq:        seqOf(req),
			Overloaded: true,
			Load: &protocol.LoadHint{
				QueueDepth: 8, QueueCap: 8, Workers: 2, Busy: 2,
				QueueingMillis: 250, Saturated: true,
			},
		}, nil)
		protocol.Write(serverSide, msg)
	}()
	conn := NewConn(clientSide)
	defer conn.Close()
	_, _, err := conn.OffloadSnapshot("a", []byte("snap"), false)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if !errors.Is(err, ErrServerError) {
		t.Errorf("overload error should also match ErrServerError, got %v", err)
	}
	hint, at, ok := conn.LastLoad()
	if !ok {
		t.Fatal("LastLoad not recorded from error header")
	}
	if !hint.Saturated || hint.QueueingDelay() != 250*time.Millisecond {
		t.Errorf("hint = %+v", hint)
	}
	if at.IsZero() {
		t.Error("load timestamp not set")
	}
}

func TestPingCollectsLoad(t *testing.T) {
	clientSide, serverSide := net.Pipe()
	go func() {
		defer serverSide.Close()
		msg, err := protocol.Read(serverSide)
		if err != nil || msg.Type != protocol.MsgPing {
			return
		}
		pong, _ := protocol.Encode(protocol.MsgPong, protocol.PongHeader{
			Installed: true,
			Load:      &protocol.LoadHint{Workers: 4, QueueingMillis: 10},
			Seq:       seqOf(msg),
		}, nil)
		protocol.Write(serverSide, pong)
	}()
	conn := NewConn(clientSide)
	defer conn.Close()
	installed, load, err := conn.Ping()
	if err != nil {
		t.Fatal(err)
	}
	if !installed || load == nil || load.Workers != 4 {
		t.Errorf("installed=%v load=%+v", installed, load)
	}
	if _, _, ok := conn.LastLoad(); !ok {
		t.Error("ping did not record the load hint")
	}
}

func TestStaleLoadHintIgnored(t *testing.T) {
	clientSide, serverSide := net.Pipe()
	defer serverSide.Close()
	conn := NewConn(clientSide)
	defer conn.Close()
	conn.noteLoad(&protocol.LoadHint{Saturated: true})
	conn.loadMu.Lock()
	conn.loadAt = time.Now().Add(-time.Minute)
	conn.loadMu.Unlock()
	if _, ok := conn.FreshLoad(); ok {
		t.Error("a minute-old hint should not read as fresh")
	}
	if _, _, ok := conn.LastLoad(); !ok {
		t.Error("a stale hint is still the last one recorded")
	}
}
