package client

import (
	"bytes"
	"errors"
	"net"
	"runtime"
	"testing"

	"websnap/internal/edge"
	"websnap/internal/mlapp"
	"websnap/internal/nn"
	"websnap/internal/protocol"
	"websnap/internal/snapshot"
	"websnap/internal/testutil"
	"websnap/internal/webapp"
)

// bigInputSide is the input edge of bigInputModel: a 3×224×224 image is
// 150,528 floats, GoogLeNet's input.
const bigInputSide = 224

// bigInputModel has GoogLeNet's input size and next to no compute or
// weights, so what an offload of it allocates is the offload's own.
func bigInputModel(t *testing.T) *nn.Network {
	t.Helper()
	var layers []nn.Layer
	add := func(l nn.Layer, err error) {
		if err != nil {
			t.Fatal(err)
		}
		layers = append(layers, l)
	}
	const pooled = bigInputSide / 8
	add(nn.NewInput("data", 3, bigInputSide, bigInputSide))
	add(nn.NewPool("pool", nn.MaxPool, 8, 8, 0))
	add(nn.NewFC("fc", 3*pooled*pooled, 3))
	add(nn.NewSoftmax("prob"), nil)
	m, err := nn.NewNetwork("big-input", layers...)
	if err != nil {
		t.Fatal(err)
	}
	m.InitWeights(5)
	return m
}

// TestOffloadAllocBudget holds a warm offload to the copies of its input
// that change owner: the server decodes the request's array, and restore
// copies it so that the result can be told from the request. Everything
// else — capturing the client's state, the request text at either end, the
// result — is read in place, written into kept storage or a few KB. Client
// and server share the process, so one TotalAlloc counts both sides.
func TestOffloadAllocBudget(t *testing.T) {
	if testutil.RaceDetector {
		t.Skip("the race detector changes allocation counts")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const (
		volume = 3 * bigInputSide * bigInputSide
		input  = 4 * volume // the input's float32 bytes
		// slack is the fixed cost of one round trip: headers, span trees,
		// the result delta, the forward's output.
		slack = 64 << 10
	)
	conn := dialEdge(t, startEdge(t, edge.Config{Installed: true}))
	model := bigInputModel(t)
	app, err := mlapp.NewFullApp("budget", "big", model, []string{"x", "y", "z"})
	if err != nil {
		t.Fatal(err)
	}
	off, err := NewOffloader(app, conn, Options{
		OffloadEventTypes: []string{mlapp.EventClick},
	})
	if err != nil {
		t.Fatal(err)
	}
	off.StartPreSend()
	if err := off.WaitForAcks(); err != nil {
		t.Fatal(err)
	}
	images := []webapp.Float32Array{mlapp.SyntheticImage(volume, 1), mlapp.SyntheticImage(volume, 2)}
	n := 0
	offload := func() {
		n++
		if err := mlapp.LoadImage(app, images[n%len(images)]); err != nil {
			t.Fatal(err)
		}
		app.DispatchEvent(webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick})
		if _, err := off.Run(10); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		offload() // warm: kept storage, pools, the compiled plan
	}
	got := testutil.MeasureAllocs(16, offload).Bytes
	if st := off.Stats(); st.Offloads != n || mlapp.Result(app) == "" {
		t.Fatalf("%d offloads of %d completed, result %q", st.Offloads, n, mlapp.Result(app))
	}
	t.Logf("%d B allocated per offload of a %d B input (%.2f×)", got, input, float64(got)/input)
	if limit := uint64(5*input/2 + slack); got > limit {
		t.Errorf("an offload allocates %d B, want at most 2.5 × the %d B input + %d B = %d B", got, input, slack, limit)
	}
}

// TestFailedOffloadLeavesAppUntouched: the offloader reads the app's state
// in place and writes it only once a result has decoded and checked. So an
// offload that fails after its request was encoded — here the result's
// bindings name a handler the app's code lacks — leaves the app
// bit-identical to before the attempt, and the local fallback then answers
// exactly what a local run does.
func TestFailedOffloadLeavesAppUntouched(t *testing.T) {
	clientSide, serverSide := net.Pipe()
	go func() {
		defer serverSide.Close()
		for {
			req, err := protocol.Read(serverSide)
			if err != nil {
				return
			}
			if req.Type == protocol.MsgModelPreSend {
				var ps protocol.ModelPreSendHeader
				if protocol.DecodeHeader(req, &ps) != nil {
					return
				}
				ack, err := protocol.Encode(protocol.MsgAck, protocol.AckHeader{
					AppID: ps.AppID, ModelName: ps.ModelName, Seq: ps.Seq,
				}, nil)
				if err != nil || protocol.Write(serverSide, ack) != nil {
					return
				}
				continue
			}
			var hdr protocol.SnapshotHeader
			if protocol.DecodeHeader(req, &hdr) != nil {
				return
			}
			snap, err := snapshot.Decode(req.Body)
			if err != nil {
				return
			}
			// Every change a result can make, and one binding that cannot
			// be applied: nothing of it may reach the app.
			after := *snap
			after.Globals = map[string]webapp.Value{"image": webapp.Float32Array{1, 2, 3}}
			after.DOM = webapp.NewNode("body", "root")
			after.Bindings = []webapp.Binding{{Target: "b", Event: "x", Handler: "no-such-handler"}}
			after.Pending = nil
			delta, err := snapshot.Diff(snap, &after, hdr.RequestBase(req.Body))
			if err != nil {
				return
			}
			body, err := delta.Encode()
			if err != nil {
				return
			}
			resp, err := protocol.Encode(protocol.MsgResultDelta, protocol.SnapshotHeader{
				AppID: snap.AppID, Seq: hdr.Seq, BodyCRC: protocol.BodyChecksum(body),
			}, body)
			if err != nil || protocol.Write(serverSide, resp) != nil {
				return
			}
		}
	}()
	conn := NewConn(clientSide)
	defer conn.Close()
	state := func(app *webapp.App) []byte {
		text, _, err := snapshot.AppendApp(nil, app, snapshot.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return text
	}
	newApp := func() *webapp.App {
		app, err := mlapp.NewFullApp("untouched", "tiny", tinyModel(t), []string{"x", "y", "z"})
		if err != nil {
			t.Fatal(err)
		}
		if err := mlapp.LoadImage(app, mlapp.SyntheticImage(3*16*16, 7)); err != nil {
			t.Fatal(err)
		}
		return app
	}
	click := webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick}

	app := newApp()
	off, err := NewOffloader(app, conn, Options{OffloadEventTypes: []string{mlapp.EventClick}})
	if err != nil {
		t.Fatal(err)
	}
	before := state(app)
	if err := off.Offload(click); !errors.Is(err, webapp.ErrUnknownHandler) {
		t.Fatalf("offload err = %v, want the result's unknown handler", err)
	}
	if got := state(app); !bytes.Equal(got, before) {
		t.Errorf("a failed offload changed the app:\n got %s\nwant %s", got, before)
	}

	fallback, err := NewOffloader(app, conn, Options{OffloadEventTypes: []string{mlapp.EventClick}, LocalFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	app.DispatchEvent(click)
	if _, err := fallback.Run(10); err != nil {
		t.Fatal(err)
	}
	if st := fallback.Stats(); st.LocalFallbacks != 1 {
		t.Fatalf("stats = %+v, want one local fallback", st)
	}
	local := newApp()
	if err := local.Handle(click); err != nil {
		t.Fatal(err)
	}
	if got, want := state(app), state(local); !bytes.Equal(got, want) {
		t.Errorf("fallback state differs from a local run:\n got %s\nwant %s", got, want)
	}
}
