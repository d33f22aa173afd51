package client

import (
	"errors"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"websnap/internal/obs"
	"websnap/internal/protocol"
	"websnap/internal/snapshot"
	"websnap/internal/webapp"
)

// orderApp builds a model-less app whose "work" handler (offload-eligible
// event "go") and "note" handler (local event "note") append their names
// to the returned log; onWork, when set, runs inside "work".
func orderApp(t *testing.T, onWork func()) (*webapp.App, *[]string) {
	t.Helper()
	var order []string
	reg := webapp.NewRegistry("orderapp")
	reg.MustRegister("work", func(app *webapp.App, ev webapp.Event) error {
		order = append(order, "work")
		if onWork != nil {
			onWork()
		}
		return app.SetGlobal("done", "yes")
	})
	reg.MustRegister("note", func(app *webapp.App, ev webapp.Event) error {
		order = append(order, "note")
		return nil
	})
	app, err := webapp.NewApp("order", reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.AddEventListener("b", "go", "work"); err != nil {
		t.Fatal(err)
	}
	if err := app.AddEventListener("b", "note", "note"); err != nil {
		t.Fatal(err)
	}
	return app, &order
}

// TestLocalPlacementRunsItsEvent is the regression for the fallback
// reorder: with [work, note] queued and the offload kept on the device, the
// local placement must run the event it was given — work, then note — and
// the one eligible event must produce exactly one decision. The old code
// re-queued work at the tail and stepped the head, so note ran first and
// work was attempted (and audited) a second time.
func TestLocalPlacementRunsItsEvent(t *testing.T) {
	cases := []struct {
		name   string
		opts   Options
		setup  func(conn *Conn, serverSide net.Conn)
		path   obs.DecisionPath
		reason string
	}{
		{
			name:   "fallback on unreachable server",
			opts:   Options{LocalFallback: true},
			setup:  func(_ *Conn, serverSide net.Conn) { serverSide.Close() },
			path:   obs.PathFallback,
			reason: "conn-broken",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clientSide, serverSide := net.Pipe()
			defer serverSide.Close()
			conn := NewConn(clientSide)
			defer conn.Close()
			tc.setup(conn, serverSide)

			app, order := orderApp(t, nil)
			audit := obs.NewAuditor(obs.AuditorOptions{Keep: 8})
			tc.opts.OffloadEventTypes = []string{"go"}
			tc.opts.Audit = audit
			off, err := NewOffloader(app, conn, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			app.DispatchEvent(webapp.Event{Target: "b", Type: "go"})
			app.DispatchEvent(webapp.Event{Target: "b", Type: "note"})
			if steps, err := off.Run(4); err != nil || steps != 2 {
				t.Fatalf("Run = %d steps, %v; want 2, nil", steps, err)
			}
			if want := []string{"work", "note"}; !reflect.DeepEqual(*order, want) {
				t.Errorf("handler order = %v, want %v", *order, want)
			}
			decisions := audit.Recent()
			if len(decisions) != 1 {
				t.Fatalf("decisions = %+v, want exactly one", decisions)
			}
			if d := decisions[0]; d.Path != tc.path || d.Reason != tc.reason {
				t.Errorf("decision = %s/%s, want %s/%s", d.Path, d.Reason, tc.path, tc.reason)
			}
			if st := off.Stats(); st.LocalFallbacks != 1 {
				t.Errorf("stats = %+v, want one local execution", st)
			}
		})
	}
}

// TestOverloadIsNotRetried: a server that sheds an offload with an overloaded
// error frame asked for less work — sending it the same snapshot again would
// be the opposite. Exactly one request frame goes out per event, the shed is
// the event's one decision, and the connection stays usable.
func TestOverloadIsNotRetried(t *testing.T) {
	clientSide, serverSide := net.Pipe()
	var mu sync.Mutex
	var frames []protocol.MsgType
	go func() {
		defer serverSide.Close()
		for {
			req, err := protocol.Read(serverSide)
			if err != nil {
				return
			}
			mu.Lock()
			frames = append(frames, req.Type)
			first := len(frames) == 1
			mu.Unlock()
			var resp protocol.Message
			if first {
				// Answer the first snapshot with itself, event consumed: a
				// result delta against the request that only drops the
				// pending event.
				var hdr protocol.SnapshotHeader
				if protocol.DecodeHeader(req, &hdr) != nil {
					return
				}
				snap, err := snapshot.Decode(req.Body)
				if err != nil {
					return
				}
				after := *snap
				after.Pending = nil
				delta, err := snapshot.Diff(snap, &after, hdr.RequestBase(req.Body))
				if err != nil {
					return
				}
				body, err := delta.Encode()
				if err != nil {
					return
				}
				resp, _ = protocol.Encode(protocol.MsgResultDelta, protocol.SnapshotHeader{
					AppID: snap.AppID, Seq: hdr.Seq, BodyCRC: protocol.BodyChecksum(body),
				}, body)
			} else {
				resp, _ = protocol.Encode(protocol.MsgError, protocol.ErrorHeader{
					Message: "admission queue full", Seq: seqOf(req), Overloaded: true,
					Load: &protocol.LoadHint{Saturated: true},
				}, nil)
			}
			if protocol.Write(serverSide, resp) != nil {
				return
			}
		}
	}()
	conn := NewConn(clientSide)
	defer conn.Close()

	app, _ := orderApp(t, nil)
	audit := obs.NewAuditor(obs.AuditorOptions{Keep: 8})
	off, err := NewOffloader(app, conn, Options{
		OffloadEventTypes: []string{"go"},
		Audit:             audit,
	})
	if err != nil {
		t.Fatal(err)
	}
	step := func() error {
		app.DispatchEvent(webapp.Event{Target: "b", Type: "go"})
		_, err := off.Step()
		return err
	}
	if err := step(); err != nil {
		t.Fatalf("first offload: %v", err)
	}
	for i := 2; i <= 3; i++ {
		if err := step(); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("offload %d err = %v, want ErrOverloaded", i, err)
		}
	}
	mu.Lock()
	got := append([]protocol.MsgType(nil), frames...)
	mu.Unlock()
	if want := []protocol.MsgType{protocol.MsgSnapshot, protocol.MsgSnapshot, protocol.MsgSnapshot}; !reflect.DeepEqual(got, want) {
		t.Fatalf("request frames = %v, want %v (one frame per event, shed or not)", got, want)
	}
	decisions := audit.Recent()
	if d := decisions[len(decisions)-1]; len(decisions) != 3 || d.Path != obs.PathError || d.Reason != "overloaded" {
		t.Errorf("decisions = %+v, want [full, error/overloaded, error/overloaded]", decisions)
	}
	if conn.Broken() {
		t.Error("a clean overload frame marked the connection broken")
	}
}

// TestFallbackRunsBeforeRedial: when the edge host dies mid-offload, the
// user's inference must fall back to the device at once; repairing the
// connection is housekeeping for the next event and happens afterwards.
// The fallback handler therefore still sees a broken, un-redialed Conn.
func TestFallbackRunsBeforeRedial(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		var open []net.Conn
		defer func() {
			for _, c := range open {
				c.Close()
			}
		}()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			if len(open) == 0 {
				// Swallow the offload request, then hang up without an answer.
				protocol.Read(c) //nolint:errcheck
				c.Close()
			}
			open = append(open, c)
		}
	}()
	conn := dialEdge(t, ln.Addr().String())
	conn.SetRequestTimeout(5 * time.Second)

	var off *Offloader
	var redialsSeen int
	var brokenSeen bool
	app, order := orderApp(t, func() {
		redialsSeen = off.Stats().Redials
		brokenSeen = conn.Broken()
	})
	off, err = NewOffloader(app, conn, Options{
		OffloadEventTypes: []string{"go"},
		LocalFallback:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	app.DispatchEvent(webapp.Event{Target: "b", Type: "go"})
	if _, err := off.Step(); err != nil {
		t.Fatal(err)
	}
	if len(*order) != 1 {
		t.Fatalf("fallback handler ran %d times, want 1", len(*order))
	}
	if redialsSeen != 0 || !brokenSeen {
		t.Errorf("during fallback: redials=%d broken=%v, want 0 and true (repair comes after)", redialsSeen, brokenSeen)
	}
	if st := off.Stats(); st.Redials != 1 || st.LocalFallbacks != 1 {
		t.Errorf("after Step: %+v, want one redial and one fallback", st)
	}
	if conn.Broken() {
		t.Error("conn still broken after Step")
	}
}
