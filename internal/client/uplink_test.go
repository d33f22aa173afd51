package client

import (
	"encoding/json"
	"errors"
	"math"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"websnap/internal/edge"
	"websnap/internal/mlapp"
	"websnap/internal/netem"
	"websnap/internal/nn"
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
// snapshot request and every weight upload it forwards, hands each upload to
// tamper when that is set, and clears the bits of strip from the capability
// hints of every response header: with strip all of them, what a server from
// before the packed encoding answers.
func relayTo(t *testing.T, addr string, strip int, tamper func(*protocol.Message)) (net.Conn, func(protocol.MsgType) []string) {
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
	seen := map[protocol.MsgType][]string{}
	go func() {
		for {
			msg, err := protocol.Read(relaySide)
			if err != nil {
				upstream.Close()
				return
			}
			var hdr struct {
				Encoding string `json:"encoding"`
				RefOnly  bool   `json:"refOnly"`
			}
			if protocol.DecodeHeader(msg, &hdr) == nil && !hdr.RefOnly {
				mu.Lock()
				seen[msg.Type] = append(seen[msg.Type], hdr.Encoding)
				mu.Unlock()
			}
			if msg.Type == protocol.MsgModelPreSend && !hdr.RefOnly && tamper != nil {
				tamper(&msg)
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
			var hdr map[string]json.RawMessage
			if strip != 0 && json.Unmarshal(msg.Header, &hdr) == nil {
				var hints int
				json.Unmarshal(hdr["hints"], &hints) //nolint:errcheck // absent reads 0
				hdr["hints"], _ = json.Marshal(hints &^ strip)
				msg.Header, _ = json.Marshal(hdr)
			}
			if protocol.Write(relaySide, msg) != nil {
				return
			}
		}
	}()
	return clientSide, func(t protocol.MsgType) []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), seen[t]...)
	}
}

// TestOldPeerGetsRawBodies: however slow the link reads, a server that has
// not said it decodes packed bodies is sent the text — and the same session
// against a server that has, over the same link, packs every request. Each
// case gets a server of its own, so that each pre-send uploads the weights
// and seeds the estimate.
func TestOldPeerGetsRawBodies(t *testing.T) {
	for _, c := range []struct {
		name  string
		strip int
		want  string
	}{
		{"server without the hint bit", protocol.HintPackedBody | protocol.HintPackedWeights, protocol.EncodingRaw},
		{"server with it", 0, protocol.EncodingPacked},
	} {
		t.Run(c.name, func(t *testing.T) {
			rw, seen := relayTo(t, startEdge(t, edge.Config{Installed: true}), c.strip, nil)
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
			got := seen(protocol.MsgSnapshot)
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

// TestOldPeerGetsRawWeights: a model's weights travel packed only to a server
// whose by-reference ack said it decodes them. One without that bit — which
// still decodes packed snapshots — is sent the raw blob, and both store the
// model under the key the client offered. Uploaded is the body the server
// counted off the link.
func TestOldPeerGetsRawWeights(t *testing.T) {
	model := wideModel(t)
	raw := int64(8 + model.ModelBytes())
	for _, c := range []struct {
		name  string
		strip int
		want  string
	}{
		{"server without the weights bit", protocol.HintPackedWeights, protocol.EncodingRaw},
		{"server with it", 0, protocol.EncodingPacked},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv, addr := startEdgeServer(t, edge.Config{Installed: true})
			rw, seen := relayTo(t, addr, c.strip, nil)
			conn := NewConn(rw)
			defer conn.Close()
			ps, err := conn.PreSendModel("wide-app", "wide", model, "")
			if err != nil {
				t.Fatal(err)
			}
			if got := seen(protocol.MsgModelPreSend); !slices.Equal(got, []string{c.want}) {
				t.Errorf("uploads travelled as %q, want one %q", got, protocol.EncodingName(c.want))
			}
			m := srv.Metrics()
			wire := map[string]int64{protocol.EncodingRaw: m.PreSendRawBytes, protocol.EncodingPacked: m.PreSendPackedBytes}[c.want]
			if ps.Uploaded != wire || m.PreSendRawBytes+m.PreSendPackedBytes != wire {
				t.Errorf("client reports %d bytes uploaded; server counted raw %d, packed %d", ps.Uploaded, m.PreSendRawBytes, m.PreSendPackedBytes)
			}
			if packed := c.want == protocol.EncodingPacked; (ps.Uploaded < raw) != packed || ps.Uploaded > raw {
				t.Errorf("uploaded %d bytes of a %d-byte blob", ps.Uploaded, raw)
			}
			if keys := srv.Store().KeysMRU(); !slices.Equal(keys, []string{nn.Fingerprint(model)}) {
				t.Errorf("stored under %v, want the model's key %s", keys, nn.Fingerprint(model))
			}
		})
	}
}

// TestPackedPreSendUplinkReadsTheLink: the uplink estimate a packed pre-send
// seeds is the link's rate — the packed bytes over the time they took —
// not the blob's size over that time, which reads the 30 Mbit/s link 1.2×
// fast.
func TestPackedPreSendUplinkReadsTheLink(t *testing.T) {
	const rate = 30e6 / 8 // bytes per second
	conn, err := DialWrapped(startEdge(t, edge.Config{Installed: true}), func(c net.Conn) net.Conn {
		return netem.Shape(c, netem.WiFi30Mbps)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// 2 MB of weights: half a second on the link, against 4 ms of latency.
	var layers []nn.Layer
	add := func(l nn.Layer, err error) {
		if err != nil {
			t.Fatal(err)
		}
		layers = append(layers, l)
	}
	add(nn.NewInput("data", 10, 10, 10))
	add(nn.NewFC("fc1", 1000, 500))
	add(nn.NewFC("fc2", 500, 3))
	add(nn.NewSoftmax("prob"), nil)
	model, err := nn.NewNetwork("big", layers...)
	if err != nil {
		t.Fatal(err)
	}
	model.InitWeights(5)
	app, err := mlapp.NewFullApp("big-app", "big", model, []string{"x", "y", "z"})
	if err != nil {
		t.Fatal(err)
	}
	off, err := NewOffloader(app, conn, Options{OffloadEventTypes: []string{mlapp.EventClick}})
	if err != nil {
		t.Fatal(err)
	}
	off.StartPreSend()
	if err := off.WaitForAcks(); err != nil {
		t.Fatal(err)
	}
	st := off.Stats()
	if st.PreSendBytes <= 0 || st.PreSendBytes >= model.ModelBytes() {
		t.Fatalf("uploaded %d bytes of a %d-byte model: the test needs it packed", st.PreSendBytes, model.ModelBytes())
	}
	if got := st.UplinkBytesPerSec; math.Abs(got/rate-1) > 0.15 {
		t.Errorf("after a packed pre-send the estimate reads %.3g B/s, the link carries %.3g", got, rate)
	}
}

// TestCorruptPackedPreSendFallsBackLocally: a packed upload the link
// corrupts is refused by the server on an intact stream, and the click that
// needed the model runs on the device with the answer the device computes.
func TestCorruptPackedPreSendFallsBackLocally(t *testing.T) {
	srv, addr := startEdgeServer(t, edge.Config{Installed: true})
	rw, seen := relayTo(t, addr, 0, func(m *protocol.Message) { m.Body[len(m.Body)/2] ^= 0x10 })
	conn := NewConn(rw)
	defer conn.Close()
	model := wideModel(t)
	labels := []string{"x", "y", "z"}
	app, err := mlapp.NewFullApp("wide-app", "wide", model, labels)
	if err != nil {
		t.Fatal(err)
	}
	off, err := NewOffloader(app, conn, Options{OffloadEventTypes: []string{mlapp.EventClick}, LocalFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	off.StartPreSend()
	if err := off.WaitForAcks(); !errors.Is(err, ErrServerError) {
		t.Fatalf("corrupted pre-send: err %v, want the server's refusal", err)
	}
	got := classifyImage(t, off, app, 3*wideSide*wideSide, 1)

	local, err := mlapp.NewFullApp("local", "wide", model, labels)
	if err != nil {
		t.Fatal(err)
	}
	if want := classifyImage(t, nil, local, 3*wideSide*wideSide, 1); got != want {
		t.Errorf("fallback answered %q, the device computes %q", got, want)
	}
	if st := off.Stats(); st.LocalFallbacks != 1 || st.Offloads != 0 || conn.Broken() {
		t.Errorf("%d fallbacks, %d offloads, broken %v; want 1, 0, false", st.LocalFallbacks, st.Offloads, conn.Broken())
	}
	if n := srv.Metrics().ModelsStored; n != 0 {
		t.Errorf("the server stored %d models", n)
	}
	for _, enc := range seen(protocol.MsgModelPreSend) {
		if enc != protocol.EncodingPacked {
			t.Errorf("an upload travelled %q", protocol.EncodingName(enc))
		}
	}
}
