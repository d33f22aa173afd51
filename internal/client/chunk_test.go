package client

import (
	"net"
	"slices"
	"testing"
	"time"

	"websnap/internal/edge"
	"websnap/internal/netem"
	"websnap/internal/nn"
	"websnap/internal/protocol"
	"websnap/internal/testutil"
)

// fourMBModel is a model of 4.0 MB of weights: a quarter of a second of
// packed upload at 30 Mbit/s per MB.
func fourMBModel(t *testing.T) *nn.Network {
	t.Helper()
	var layers []nn.Layer
	add := func(l nn.Layer, err error) {
		if err != nil {
			t.Fatal(err)
		}
		layers = append(layers, l)
	}
	add(nn.NewInput("data", 10, 10, 10))
	add(nn.NewFC("fc1", 1000, 1000))
	add(nn.NewFC("fc2", 1000, 3))
	add(nn.NewSoftmax("prob"), nil)
	m, err := nn.NewNetwork("four", layers...)
	if err != nil {
		t.Fatal(err)
	}
	m.InitWeights(11)
	return m
}

// TestPingDuringPreSendIsNotBlocked: on a 30 Mbit/s link, a Ping sent 150 ms
// into a model pre-send answers within twice the idle round trip plus one
// chunk's wire time (and 10 ms of scheduling): the upload yields the
// connection between chunks instead of holding it for its whole body.
func TestPingDuringPreSendIsNotBlocked(t *testing.T) {
	if testutil.RaceDetector {
		// The detector slows the server's decode of the upload below the
		// link's rate, so the connection's chunk budget, not the writer,
		// would set the Ping's wait.
		t.Skip("times a Ping against the link; the race detector slows the decoder below it")
	}
	conn, err := DialWrapped(startEdge(t, edge.Config{Installed: true}), func(c net.Conn) net.Conn {
		return netem.Shape(c, netem.WiFi30Mbps)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	idle := time.Duration(1 << 62)
	for range 3 {
		start := time.Now()
		if _, _, err := conn.Ping(); err != nil {
			t.Fatal(err)
		}
		idle = min(idle, time.Since(start))
	}
	model := fourMBModel(t)
	done := make(chan error, 1)
	var ps PreSend
	go func() {
		var err error
		ps, err = conn.PreSendModel("four-app", "four", model, "")
		done <- err
	}()
	time.Sleep(150 * time.Millisecond)
	start := time.Now()
	if _, _, err := conn.Ping(); err != nil {
		t.Fatal(err)
	}
	rtt := time.Since(start)
	chunkWire := netem.WiFi30Mbps.TransferTime(protocol.ChunkSize) - netem.WiFi30Mbps.Latency
	select {
	case err := <-done:
		t.Fatalf("the pre-send ended (err %v) before the Ping was answered: the test needs it in flight", err)
	default:
	}
	if bound := 2*idle + chunkWire + 10*time.Millisecond; rtt > bound {
		t.Errorf("a Ping during the pre-send took %v, want within %v (idle %v)", rtt, bound, idle)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if ps.Uploaded == 0 || ps.Uploaded >= model.ModelBytes() {
		t.Errorf("uploaded %d bytes of a %d-byte model: the test needs it packed", ps.Uploaded, model.ModelBytes())
	}
}

// TestOldPeerGetsWholeFrames: to a server that has not said it reads chunks,
// a large pre-send travels as one whole frame — its weights packed in one
// segment, the plane layout every packed-weights server decodes — and is
// stored under the model's key, as a chunked one is by a server that reads
// them.
func TestOldPeerGetsWholeFrames(t *testing.T) {
	model := fourMBModel(t)
	for _, c := range []struct {
		name  string
		strip int
	}{
		{"server without the chunks bit", protocol.HintChunks},
		{"server with it", 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv, addr := startEdgeServer(t, edge.Config{Installed: true})
			var conn *Conn
			if c.strip != 0 {
				rw, seen := relayTo(t, addr, c.strip, nil)
				conn = NewConn(rw)
				defer func() {
					if got := seen(protocol.MsgModelPreSend); !slices.Equal(got, []string{protocol.EncodingPacked}) {
						t.Errorf("whole uploads %q, want one packed", got)
					}
				}()
			} else {
				conn = dialEdge(t, addr)
			}
			defer conn.Close()
			ps, err := conn.PreSendModel("four-app", "four", model, "")
			if err != nil {
				t.Fatal(err)
			}
			if keys := srv.Store().KeysMRU(); !slices.Equal(keys, []string{nn.Fingerprint(model)}) {
				t.Errorf("stored under %v, want the model's key %s", keys, nn.Fingerprint(model))
			}
			if m := srv.Metrics(); m.PreSendPackedBytes != ps.Uploaded || ps.Uploaded >= model.ModelBytes() {
				t.Errorf("client uploaded %d bytes, server counted %d packed, of a %d-byte model", ps.Uploaded, m.PreSendPackedBytes, model.ModelBytes())
			}
		})
	}
}
