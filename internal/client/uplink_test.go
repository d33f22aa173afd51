package client

import (
	"encoding/json"
	"net"
	"sync"
	"testing"
	"time"

	"websnap/internal/edge"
	"websnap/internal/mlapp"
	"websnap/internal/netem"
	"websnap/internal/protocol"
)

// transfer is n bytes carried at rate bytes per second.
func transfer(n int64, rate float64) (int64, time.Duration) {
	return n, time.Duration(float64(n) / rate * float64(time.Second))
}

// TestUplinkEstimateFollowsLargeTransfers feeds the estimator synthetic
// (bytes, uplink time) sequences: nothing is decided before a measurement,
// bodies too small to be bandwidth-bound neither move the estimate nor get
// packed, and a link that drops from fast to slow — or recovers — flips the
// decision within three large transfers.
func TestUplinkEstimateFollowsLargeTransfers(t *testing.T) {
	const (
		body     = 400 << 10
		loopback = 500e6
		wifi     = 3.75e6
		flips    = 3
	)
	var u uplinkEstimate
	if u.worthPacking(body) {
		t.Error("a body is packed before anything was measured")
	}
	u.observe(transfer(45<<20, wifi)) // the pre-send
	if !u.worthPacking(body) {
		t.Errorf("after a pre-send at %.3g B/s the estimate is %.3g B/s: first request not packed", wifi, u.bytesPerSec)
	}
	if u.worthPacking(linkBoundBytes - 1) {
		t.Error("a body under linkBoundBytes is packed")
	}

	// Small bodies read anything from 1 to 100 MB/s on a fast link: that is
	// the round trip's latency, and must leave the estimate alone.
	u = uplinkEstimate{}
	u.observe(transfer(body, loopback))
	before := u
	for _, rate := range []float64{1.2e6, 113e6, 2e6, 0.5e6, 1e6, 1e6, 1e6, 1e6} {
		u.observe(transfer(5400, rate))
	}
	if u != before || u.worthPacking(body) {
		t.Errorf("small-body outliers moved the estimate from %.3g to %.3g B/s", before.bytesPerSec, u.bytesPerSec)
	}
	// One stalled large transfer in a run of fast ones does not flip it either.
	u.observe(transfer(body, 8e6))
	if u.worthPacking(body) {
		t.Errorf("one slow reading among fast ones flipped the decision (estimate %.3g B/s)", u.bytesPerSec)
	}
	u.observe(0, time.Second)
	u.observe(body, 0)
	u.observe(body, -time.Second)

	settle := func(rate float64, want bool) {
		t.Helper()
		for i := 1; i <= flips; i++ {
			u.observe(transfer(body, rate))
			if u.worthPacking(body) == want {
				return
			}
		}
		t.Errorf("%d transfers at %.3g B/s leave the estimate at %.3g B/s: packing still %v", flips, rate, u.bytesPerSec, !want)
	}
	for i := 0; i < 20; i++ { // a long fast history is no heavier than a short one
		u.observe(transfer(body, loopback))
	}
	settle(wifi, true)
	for i := 0; i < 20; i++ {
		u.observe(transfer(body, wifi))
	}
	settle(loopback, false)
	settle(wifi, true)
}

// TestStatsReportCurrentUplink: Stats reads the estimate the offloader packs
// by. A pre-send large enough to measure the link sets it before any offload,
// and Retarget, which forgets the old link, clears it.
func TestStatsReportCurrentUplink(t *testing.T) {
	addr := startEdge(t, edge.Config{Installed: true})
	off, _ := newWideApp(t, dialEdge(t, addr), Options{})
	st := off.Stats()
	if st.PreSendBytes < linkBoundBytes {
		t.Fatalf("pre-sent %d bytes: the test needs at least %d", st.PreSendBytes, linkBoundBytes)
	}
	if st.Offloads != 0 || st.UplinkBytesPerSec <= 0 {
		t.Errorf("after a %d-byte pre-send and %d offloads UplinkBytesPerSec = %v, want > 0",
			st.PreSendBytes, st.Offloads, st.UplinkBytesPerSec)
	}

	// A session that never started pre-sending: its first offload sends the
	// model inline, and Retarget has no pre-send to restart on the new link.
	model := wideModel(t)
	app, err := mlapp.NewFullApp("wide-inline", "wide", model, []string{"x", "y", "z"})
	if err != nil {
		t.Fatal(err)
	}
	off, err = NewOffloader(app, dialEdge(t, addr), Options{
		OffloadEventTypes: []string{mlapp.EventClick},
		Models:            []ModelToSend{{Name: "wide", Net: model}},
	})
	if err != nil {
		t.Fatal(err)
	}
	classifyImage(t, off, app, 3*wideSide*wideSide, 1)
	if st := off.Stats(); st.Offloads != 1 || st.UplinkBytesPerSec <= 0 {
		t.Fatalf("after one offload: %d offloads, UplinkBytesPerSec = %v", st.Offloads, st.UplinkBytesPerSec)
	}
	if err := off.Retarget(dialEdge(t, addr)); err != nil {
		t.Fatal(err)
	}
	if got := off.Stats().UplinkBytesPerSec; got != 0 {
		t.Errorf("after Retarget UplinkBytesPerSec = %v, want 0: that was the old link", got)
	}
}

// relayTo stands a frame relay between a client and the edge server at addr
// and returns the client's end of it. The relay records the encoding of every
// snapshot request it forwards and, when old is set, removes the capability
// hints from every response header: what a server from before the packed
// encoding answers.
func relayTo(t *testing.T, addr string, old bool) (net.Conn, func() []string) {
	t.Helper()
	upstream, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	clientSide, relaySide := net.Pipe()
	t.Cleanup(func() {
		upstream.Close()
		relaySide.Close()
	})
	var mu sync.Mutex
	var seen []string
	go func() {
		for {
			msg, err := protocol.Read(relaySide)
			if err != nil {
				upstream.Close()
				return
			}
			if msg.Type == protocol.MsgSnapshot {
				var hdr protocol.SnapshotHeader
				if protocol.DecodeHeader(msg, &hdr) == nil {
					mu.Lock()
					seen = append(seen, hdr.Encoding)
					mu.Unlock()
				}
			}
			if protocol.Write(upstream, msg) != nil {
				return
			}
		}
	}()
	go func() {
		for {
			msg, err := protocol.Read(upstream)
			if err != nil {
				relaySide.Close()
				return
			}
			if old {
				var hdr map[string]json.RawMessage
				if json.Unmarshal(msg.Header, &hdr) == nil {
					delete(hdr, "hints")
					msg.Header, _ = json.Marshal(hdr)
				}
			}
			if protocol.Write(relaySide, msg) != nil {
				return
			}
		}
	}()
	return clientSide, func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), seen...)
	}
}

// TestOldPeerGetsRawBodies: however slow the link reads, a server that has
// not said it decodes packed bodies is sent the text — and the same session
// against a server that has, over the same link, packs every request.
func TestOldPeerGetsRawBodies(t *testing.T) {
	addr := startEdge(t, edge.Config{Installed: true})
	for _, c := range []struct {
		name string
		old  bool
		want string
	}{
		{"server without the hint bit", true, protocol.EncodingRaw},
		{"server with it", false, protocol.EncodingPacked},
	} {
		t.Run(c.name, func(t *testing.T) {
			rw, seen := relayTo(t, addr, c.old)
			conn := NewConn(netem.Shape(rw, netem.WiFi30Mbps))
			defer conn.Close()
			off, app := newWideApp(t, conn, Options{})
			const offloads = 3
			for i := 0; i < offloads; i++ {
				classifyImage(t, off, app, 3*wideSide*wideSide, uint64(i+1))
			}
			st := off.Stats()
			if st.UplinkBytesPerSec <= 0 || st.UplinkBytesPerSec >= packBelowBytesPerSec {
				t.Fatalf("the shaped link reads %.3g B/s: the test needs it under break-even", st.UplinkBytesPerSec)
			}
			got := seen()
			if len(got) != offloads {
				t.Fatalf("the server saw %d snapshot requests, want %d", len(got), offloads)
			}
			for i, enc := range got {
				if enc != c.want {
					t.Errorf("request %d travelled as %q, want %q", i, protocol.EncodingName(enc), protocol.EncodingName(c.want))
				}
			}
			if packed := c.want == protocol.EncodingPacked; (st.PackedOffloads == offloads) != packed || (st.PackedOffloads == 0) == packed {
				t.Errorf("PackedOffloads = %d of %d", st.PackedOffloads, offloads)
			}
		})
	}
}
