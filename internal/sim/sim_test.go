package sim

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"websnap/internal/client"
	"websnap/internal/core"
	"websnap/internal/mlapp"
	"websnap/internal/models"
	"websnap/internal/netem"
	"websnap/internal/obs"
	"websnap/internal/partition"
	"websnap/internal/snapshot"
	"websnap/internal/tensor"
	"websnap/internal/testutil"
	"websnap/internal/webapp"
)

func scenario(t *testing.T, name string) *Scenario {
	t.Helper()
	sc, err := NewScenario(name)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestScenarioMeasurements(t *testing.T) {
	sc := scenario(t, models.GoogLeNet)
	if sc.StateBytes <= 0 || sc.InputTextBytes <= 0 || sc.ResultTextBytes <= 0 || sc.SpecBytes <= 0 {
		t.Fatalf("unmeasured scenario: %+v", sc)
	}
	// Table 1 scale: state (code + DOM + labels, no features/weights)
	// must be well under a megabyte.
	if sc.StateBytes > 1<<20 {
		t.Errorf("state bytes = %d, want < 1 MB", sc.StateBytes)
	}
	// The input image text must dominate the result scores text.
	if sc.InputTextBytes <= sc.ResultTextBytes {
		t.Error("input text should exceed result text")
	}
	// Model upload is descriptor + 4 B/param.
	if sc.ModelUploadBytes() <= sc.Net.ModelBytes() {
		t.Error("upload bytes should include the descriptor")
	}
}

func TestTextBytesMatchesRealEncoder(t *testing.T) {
	sc := scenario(t, models.AgeNet)
	arr := make(webapp.Float32Array, 10000)
	s := uint64(7)
	for i := range arr {
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		arr[i] = float32(s%100000)/10000 - 1
	}
	// Measure through the encoder the system ships: capture an app holding
	// the array and read the feature part of its encoded size.
	app, err := webapp.NewApp("measure", webapp.NewRegistry("measure"))
	if err != nil {
		t.Fatal(err)
	}
	if err := app.SetGlobal("features", arr); err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.Capture(app, snapshot.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bd, err := snap.Breakdown()
	if err != nil {
		t.Fatal(err)
	}
	real := bd.FeatureBytes
	if real < int64(len(arr)) {
		t.Fatalf("snapshot reports %d feature bytes for %d values", real, len(arr))
	}
	est := sc.textBytes(len(arr))
	ratio := float64(est) / float64(real)
	if ratio < 0.99 || ratio > 1.01 {
		t.Errorf("textBytes estimate %d vs real encoding %d (ratio %.4f), want within 1%%", est, real, ratio)
	}
}

// TestDownlinkPriceCoversRealResult holds the cost model to the engine on
// the return path: Scenario (and through PartitionConfig every split
// decision) prices the downlink as StateBytes + ResultTextBytes, so what a
// real offload brings home — Stats().LastResultBytes, the result delta — must
// fit inside that price. It did not while the result snapshot carried the
// input image back (1.6 MB against 41,001 B for GoogLeNet); now Fig. 7's
// S→C bars in `cmd/bench -experiment fig7` describe the engine.
func TestDownlinkPriceCoversRealResult(t *testing.T) {
	if testing.Short() {
		t.Skip("builds, pre-sends and runs the three benchmark models")
	}
	conn := dialEdgeServer(t)
	for _, row := range []struct {
		model string
		price int64
	}{{models.GoogLeNet, 38531}, {models.AgeNet, 1760}, {models.GenderNet, 1626}} {
		sc := scenario(t, row.model)
		price := sc.StateBytes + sc.ResultTextBytes
		if price != row.price {
			t.Errorf("%s: downlink priced at %d B, the pinned price is %d B", row.model, price, row.price)
		}
		out, err := sc.Net.OutputShape()
		if err != nil {
			t.Fatal(err)
		}
		session, err := core.NewSession(core.SessionConfig{
			AppID: "downlink-" + row.model, ModelName: row.model, Model: sc.Net,
			Labels: labelsFor(row.model, out[len(out)-1]),
			Mode:   core.ModeFull, Conn: conn, PreSend: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := session.WaitForModelUpload(); err != nil {
			t.Fatal(err)
		}
		if _, err := session.Classify(mlapp.SyntheticImage(tensor.Volume(sc.Net.InputShape()), 1)); err != nil {
			t.Fatal(err)
		}
		st := session.Stats()
		if st.Offloads != 1 || st.LastResultBytes <= 0 {
			t.Fatalf("%s: stats %+v, want one offload with a result", row.model, st)
		}
		t.Logf("%s: result %d B on the wire, priced at %d B (request %d B)", row.model, st.LastResultBytes, price, st.LastSnapshotBytes)
		if st.LastResultBytes > price {
			t.Errorf("%s: the engine ships a %d B result, the cost model prices the downlink at %d B",
				row.model, st.LastResultBytes, price)
		}
	}
}

// TestUplinkPriceCoversRealRequest holds the cost model to the engine on the
// way up: partition (through Scenario.PartitionConfig, and so every live
// split choice) prices an upload as the feature data's text plus
// StateOverheadBytes, so the request a real offload ships —
// Stats().LastSnapshotBytes — must lie between the feature price alone and
// that sum. While typed arrays were decimal text and the price a
// json.Marshal sample of made-up activations it did not: 1,613,9xx B shipped
// against 1,185,702 + 33,125 priced for a GoogLeNet image, 683,5xx against
// 592,851 + 1,645 for AgeNet's 1st_pool features.
//
// On a link the offloader has measured slow the request travels packed, and
// the price — still the text's — is an upper bound on it, not an estimate of
// it. The last row drops the link to 30 Mbit/s once the model is up: within
// three requests the session is packing, what it ships is under the price, and
// the audit's decision says in which form the request went and from what link
// estimate, so a residual between predicted and measured latency on a slow
// link is attributable from the audit log alone.
func TestUplinkPriceCoversRealRequest(t *testing.T) {
	if testing.Short() {
		t.Skip("builds, pre-sends and runs GoogLeNet and AgeNet")
	}
	addr := startEdgeServer(t)
	for _, row := range []struct {
		model, split string
		mode         core.Mode
		slowLink     bool
	}{
		{models.GoogLeNet, "", core.ModeFull, false},
		{models.AgeNet, "1st_pool", core.ModePartial, false},
		{models.AgeNet, "1st_pool", core.ModePartial, true},
	} {
		sc := scenario(t, row.model)
		values := tensor.Volume(sc.Net.InputShape())
		if row.split != "" {
			pt, err := sc.partitionPoint(row.split)
			if err != nil {
				t.Fatal(err)
			}
			values = int(pt.FeatureBytes / 4)
		}
		pcfg := sc.PartitionConfig()
		features := int64(float64(values) * pcfg.TextBytesPerValue)
		out, err := sc.Net.OutputShape()
		if err != nil {
			t.Fatal(err)
		}
		link := &switchedLink{}
		conn, err := client.DialWrapped(addr, func(c net.Conn) net.Conn {
			link.Conn, link.paced = c, netem.Shape(c, netem.WiFi30Mbps)
			return link
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		audit := obs.NewAuditor(obs.AuditorOptions{Keep: 1})
		session, err := core.NewSession(core.SessionConfig{
			AppID: "uplink-" + row.model, ModelName: row.model, Model: sc.Net,
			Labels: labelsFor(row.model, out[len(out)-1]),
			Mode:   row.mode, SplitLabel: row.split, Conn: conn, PreSend: true, Audit: audit,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := session.WaitForModelUpload(); err != nil {
			t.Fatal(err)
		}
		link.slow.Store(row.slowLink)
		image := mlapp.SyntheticImage(tensor.Volume(sc.Net.InputShape()), 1)
		if _, err := session.Classify(image); err != nil {
			t.Fatal(err)
		}
		st := session.Stats()
		if !row.slowLink {
			t.Logf("%s %s: request %d B on the wire, %d values priced at %d B + %d B of state", row.model, row.split,
				st.LastSnapshotBytes, values, features, pcfg.StateOverheadBytes)
			if testutil.RaceDetector && st.PackedOffloads != 0 {
				// A 28–45 MB loopback pre-send under the detector can read
				// under break-even; the text's size is held without it.
				continue
			}
			if st.Offloads != 1 || st.PackedOffloads != 0 {
				t.Fatalf("%s: stats %+v, want one offload, as text", row.model, st)
			}
			if st.LastSnapshotBytes < features || st.LastSnapshotBytes > features+pcfg.StateOverheadBytes {
				t.Errorf("%s %s: the engine ships a %d B request, the cost model prices the uplink within [%d, %d] B",
					row.model, row.split, st.LastSnapshotBytes, features, features+pcfg.StateOverheadBytes)
			}
			continue
		}
		// The pre-send read a fast link; a slow reading is believed once a
		// second one confirms it.
		const settleWithin = 3
		for st.PackedOffloads == 0 && st.Offloads < settleWithin {
			if _, err := session.Classify(image); err != nil {
				t.Fatal(err)
			}
			st = session.Stats()
		}
		price := features + pcfg.StateOverheadBytes
		t.Logf("%s %s at 30 Mbit/s: request %d of %d packed, %d B on the wire, %.3f × its %d B price; uplink estimate %.2f MB/s",
			row.model, row.split, st.Offloads, settleWithin, st.LastSnapshotBytes,
			float64(st.LastSnapshotBytes)/float64(price), price, st.UplinkBytesPerSec/1e6)
		if st.PackedOffloads != 1 {
			t.Fatalf("%s: %d requests after the link slowed, none packed (estimate %.3g B/s)", row.model, st.Offloads, st.UplinkBytesPerSec)
		}
		if st.LastSnapshotBytes > price {
			t.Errorf("%s %s: a packed request of %d B exceeds the %d B the cost model prices the uplink at",
				row.model, row.split, st.LastSnapshotBytes, price)
		}
		last := audit.Recent()
		if len(last) != 1 || last[0].WireEncoding != "packed" ||
			last[0].UplinkBytesPerSec <= 0 || last[0].UplinkBytesPerSec >= 16e6 {
			t.Errorf("audit decision of the packed request = %+v, want wire encoding %q and the slow estimate it came from", last, "packed")
		}
	}
}

// switchedLink is a client socket whose writes are paced like netem's once
// slow is set: a link that degrades under a running session.
type switchedLink struct {
	net.Conn
	paced net.Conn
	slow  atomic.Bool
}

func (l *switchedLink) Write(b []byte) (int, error) {
	if l.slow.Load() {
		return l.paced.Write(b)
	}
	return l.Conn.Write(b)
}

// startEdgeServer starts an in-process edge server, torn down with the test,
// and returns its address.
func startEdgeServer(t *testing.T) string {
	t.Helper()
	srv, err := core.NewEdgeServer(nil)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln) // returns once Close has shut the listener
	}()
	t.Cleanup(func() {
		srv.Close()
		<-served
	})
	return ln.Addr().String()
}

// dialEdgeServer starts an in-process edge server and returns a connection
// to it; both are torn down with the test.
func dialEdgeServer(t *testing.T) *client.Conn {
	t.Helper()
	conn, err := client.Dial(startEdgeServer(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// TestFig6Shape pins every qualitative claim the paper makes about Fig 6.
func TestFig6Shape(t *testing.T) {
	rows, err := Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	for _, r := range rows {
		t.Run(r.Model, func(t *testing.T) {
			// "the server execution time is much shorter than the
			// client execution time"
			if r.Server*3 > r.Client {
				t.Errorf("server %v should be several times faster than client %v", r.Server, r.Client)
			}
			// "offloading after ACK shows an execution time similar
			// to that of server's": within 1 second.
			if d := r.AfterACK - r.Server; d < 0 || d > time.Second {
				t.Errorf("afterACK %v should be within 1s above server %v", r.AfterACK, r.Server)
			}
			// "the offloading performance rapidly increases after
			// the DNN model uploading is over"
			if r.AfterACK >= r.BeforeACK {
				t.Errorf("afterACK %v should beat beforeACK %v", r.AfterACK, r.BeforeACK)
			}
			// "partial inference is slower than full server-side
			// inference ... the cost to lessen the privacy concern"
			if r.Partial <= r.AfterACK {
				t.Errorf("partial %v should cost more than afterACK %v", r.Partial, r.AfterACK)
			}
			// Partial still beats pure client execution by a lot.
			if r.Partial*2 > r.Client {
				t.Errorf("partial %v should be well under client %v", r.Partial, r.Client)
			}
		})
	}
	byModel := map[string]Fig6Row{}
	for _, r := range rows {
		byModel[r.Model] = r
	}
	// "for AgeNet and GenderNet, offloading before ACK is even slower
	// than the local client execution due to their large model size"
	for _, m := range []string{models.AgeNet, models.GenderNet} {
		if r := byModel[m]; r.BeforeACK <= r.Client {
			t.Errorf("%s: beforeACK %v should exceed client %v", m, r.BeforeACK, r.Client)
		}
	}
	// ... but not for GoogLeNet (its model is smaller and its client
	// execution much longer).
	if r := byModel[models.GoogLeNet]; r.BeforeACK >= r.Client {
		t.Errorf("googlenet: beforeACK %v should beat client %v", r.BeforeACK, r.Client)
	}
}

// TestFig6GPUProjection: with the §IV.A GPU server (~80x), server execution
// collapses and the after-ACK offload becomes transfer-dominated — the
// "sharply reduced in the near future" remark, quantified.
func TestFig6GPUProjection(t *testing.T) {
	cpu, err := Fig6()
	if err != nil {
		t.Fatal(err)
	}
	gpu, err := Fig6GPU()
	if err != nil {
		t.Fatal(err)
	}
	for i := range gpu {
		if gpu[i].Model != cpu[i].Model {
			t.Fatalf("row order mismatch")
		}
		// Server execution should collapse by well over an order of
		// magnitude.
		if gpu[i].Server*20 > cpu[i].Server {
			t.Errorf("%s: GPU server %v not ≪ CPU server %v", gpu[i].Model, gpu[i].Server, cpu[i].Server)
		}
		// After-ACK offloading should now take about the transfer time:
		// well under a second for every model.
		if gpu[i].AfterACK > time.Second {
			t.Errorf("%s: GPU afterACK = %v, want sub-second", gpu[i].Model, gpu[i].AfterACK)
		}
		// Client execution is unchanged.
		if gpu[i].Client != cpu[i].Client {
			t.Errorf("%s: client time must not depend on the server device", gpu[i].Model)
		}
	}
}

// TestFig7Shape pins the paper's breakdown observations: snapshot overheads
// are negligible next to DNN execution, and server execution dominates.
func TestFig7Shape(t *testing.T) {
	bds, err := Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if len(bds) != 9 { // 3 configs x 3 models
		t.Fatalf("got %d breakdowns, want 9", len(bds))
	}
	for _, b := range bds {
		snapshotOverhead := b.Get(PhaseSnapshotCaptureC) + b.Get(PhaseSnapshotRestoreS) +
			b.Get(PhaseSnapshotCaptureS) + b.Get(PhaseSnapshotRestoreC)
		exec := b.Get(PhaseServerExec) + b.Get(PhaseClientExec)
		if snapshotOverhead*5 > exec {
			t.Errorf("%s/%s: snapshot overhead %v not negligible vs execution %v",
				b.Model, b.Config, snapshotOverhead, exec)
		}
		if b.Config == ConfigAfterACK {
			// "The most dominant part of the inference time is the
			// server execution time".
			if b.Get(PhaseServerExec)*2 < b.Total() {
				t.Errorf("%s: server exec %v should dominate total %v",
					b.Model, b.Get(PhaseServerExec), b.Total())
			}
		}
		if b.Config == ConfigBeforeACK && b.Get(PhaseModelUpload) == 0 {
			t.Errorf("%s: beforeACK must include model upload", b.Model)
		}
		if b.Config == ConfigAfterACK && b.Get(PhaseModelUpload) != 0 {
			t.Errorf("%s: afterACK must not include model upload", b.Model)
		}
		if b.Config == ConfigPartial && b.Get(PhaseClientExec) == 0 {
			t.Errorf("%s: partial must include client execution", b.Model)
		}
	}
}

// TestFig8Shape: the sweep exists for every model, times dip from conv to
// pool, and 1st_pool minimizes among privacy-preserving points.
func TestFig8Shape(t *testing.T) {
	rows, err := Fig8()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	for _, r := range rows {
		if len(r.Candidates) < 4 {
			t.Errorf("%s: only %d candidates", r.Model, len(r.Candidates))
		}
		var bestLabel string
		var best time.Duration
		for _, c := range r.Candidates {
			if c.Point.Index == 0 {
				continue
			}
			if bestLabel == "" || c.Total < best {
				bestLabel, best = c.Point.Label, c.Total
			}
		}
		if bestLabel != "1st_pool" {
			t.Errorf("%s: best privacy point = %s, want 1st_pool", r.Model, bestLabel)
		}
	}
}

// TestTable1Shape pins Table 1's relationships and rough magnitudes.
func TestTable1Shape(t *testing.T) {
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	paper := map[string]struct {
		synthesisSecs float64
		overlayMB     float64
		migNoPreSecs  float64
	}{
		models.GoogLeNet: {19.31, 65, 7.79},
		models.AgeNet:    {24.29, 82, 12.07},
		models.GenderNet: {24.31, 82, 12.07},
	}
	for _, r := range rows {
		t.Run(r.Model, func(t *testing.T) {
			p := paper[r.Model]
			// Magnitudes within 15% of the paper.
			if s := r.SynthesisTime.Seconds(); s < p.synthesisSecs*0.85 || s > p.synthesisSecs*1.15 {
				t.Errorf("synthesis %.2fs, paper %.2fs", s, p.synthesisSecs)
			}
			if mb := float64(r.OverlayBytes) / (1 << 20); mb < p.overlayMB*0.9 || mb > p.overlayMB*1.1 {
				t.Errorf("overlay %.1f MB, paper %.0f MB", mb, p.overlayMB)
			}
			if s := r.MigrationWithoutPre.Seconds(); s < p.migNoPreSecs*0.85 || s > p.migNoPreSecs*1.15 {
				t.Errorf("migration w/o pre-send %.2fs, paper %.2fs", s, p.migNoPreSecs)
			}
			// Orderings: snapshot migration with pre-sending is
			// sub-second, "much smaller than the VM synthesis".
			if r.MigrationWithPre >= time.Second {
				t.Errorf("migration with pre-send %v, want < 1s", r.MigrationWithPre)
			}
			if r.MigrationWithoutPre >= r.SynthesisTime {
				t.Error("first offload without pre-send should still beat VM synthesis")
			}
			if r.SansFeatureWithPre >= r.SansFeatureWithoutPre {
				t.Error("pre-sending should shrink the model-free snapshot size")
			}
		})
	}
}

func TestFig1Dimensions(t *testing.T) {
	rows, err := Fig1()
	if err != nil {
		t.Fatal(err)
	}
	byLayer := map[string][]int{}
	for _, r := range rows {
		byLayer[r.Layer] = r.OutputShape
	}
	pool1 := byLayer["pool1"]
	if len(pool1) != 3 || pool1[0] != 64 || pool1[1] != 56 || pool1[2] != 56 {
		t.Errorf("pool1 = %v, Fig 1 says 56x56x64", pool1)
	}
	out := byLayer["prob"]
	if len(out) != 1 || out[0] != 1000 {
		t.Errorf("prob = %v, want [1000]", out)
	}
}

// TestFeatureSizes pins the §IV.B measurement: GoogLeNet's feature text
// surges at 1st_conv and shrinks at 1st_pool (paper: 14.7 MB vs 2.9 MB,
// a ~5x drop; our textual encoding is denser but the ratio holds).
func TestFeatureSizes(t *testing.T) {
	rows, err := FeatureSizes()
	if err != nil {
		t.Fatal(err)
	}
	get := func(model, label string) int64 {
		for _, r := range rows {
			if r.Model == model && r.Label == label {
				return r.TextBytes
			}
		}
		t.Fatalf("missing %s/%s", model, label)
		return 0
	}
	conv1 := get(models.GoogLeNet, "1st_conv")
	pool1 := get(models.GoogLeNet, "1st_pool")
	ratio := float64(conv1) / float64(pool1)
	if ratio < 3.5 || ratio > 5.5 {
		t.Errorf("conv1/pool1 text ratio = %.2f, paper reports ~5 (14.7/2.9)", ratio)
	}
	if conv1 < 4<<20 {
		t.Errorf("1st_conv feature text = %d bytes, want multi-MB like the paper", conv1)
	}
	// "other models also show a similar size behavior"
	for _, m := range []string{models.AgeNet, models.GenderNet} {
		if get(m, "1st_conv") <= get(m, "1st_pool") {
			t.Errorf("%s: conv should exceed pool", m)
		}
	}
}

func TestOffloadPartialUnknownLabel(t *testing.T) {
	sc := scenario(t, models.GenderNet)
	if _, err := sc.OffloadPartial("99th_pool"); err == nil {
		t.Error("unknown label should fail")
	}
}

func TestBreakdownHelpers(t *testing.T) {
	b := Breakdown{}
	b.add(PhaseServerExec, time.Second)
	b.add(PhaseTransferUp, 2*time.Second)
	if b.Total() != 3*time.Second {
		t.Errorf("Total = %v", b.Total())
	}
	if b.Get(PhaseServerExec) != time.Second {
		t.Errorf("Get = %v", b.Get(PhaseServerExec))
	}
	if b.Get(PhaseModelUpload) != 0 {
		t.Error("absent phase should be zero")
	}
	if len(AllPhases()) != 9 {
		t.Errorf("AllPhases = %d, want 9", len(AllPhases()))
	}
}

// TestTimelineMatchesPlanner: the simulator's offload timeline and the
// partition planner are two views of one cost model, so at every denatured
// offloading point they must agree to the nanosecond — in total and in
// each of the planner's components. A cost model that disagrees with the
// engine it describes is a bug.
func TestTimelineMatchesPlanner(t *testing.T) {
	for _, name := range models.Names() {
		sc := scenario(t, name)
		plan, err := partition.Analyze(sc.Net, sc.PartitionConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range plan.Candidates {
			if c.Point.Index == 0 {
				continue
			}
			b, err := sc.OffloadPartial(c.Point.Label)
			if err != nil {
				t.Fatal(err)
			}
			for _, cmp := range []struct {
				what      string
				sim, plan time.Duration
			}{
				{"total", b.Total(), c.Total},
				{"snapshot overhead", b.Get(PhaseSnapshotCaptureC) + b.Get(PhaseSnapshotRestoreS) +
					b.Get(PhaseSnapshotCaptureS) + b.Get(PhaseSnapshotRestoreC), c.SnapshotOverhead},
				{"transfer", b.Get(PhaseTransferUp) + b.Get(PhaseTransferDown), c.TransferTime},
				{"client exec", b.Get(PhaseClientExec), c.ClientTime},
				{"server exec", b.Get(PhaseServerExec), c.ServerTime},
			} {
				if cmp.sim != cmp.plan {
					t.Errorf("%s @ %s: %s = %v in the timeline, %v in the planner",
						name, c.Point.Label, cmp.what, cmp.sim, cmp.plan)
				}
			}
		}

		// At the Input point the two differ only in who runs the Input
		// layer: the planner keeps it on the client, full offloading runs it
		// on the server. The layer has no FLOPs, so the gap is exactly the
		// difference of the two devices' per-layer dispatch overheads.
		after, err := sc.OffloadAfterACK()
		if err != nil {
			t.Fatal(err)
		}
		infos, err := sc.Net.Describe()
		if err != nil {
			t.Fatal(err)
		}
		onClient, err := sc.Client.LayerTime(infos[0])
		if err != nil {
			t.Fatal(err)
		}
		onServer, err := sc.Server.LayerTime(infos[0])
		if err != nil {
			t.Fatal(err)
		}
		if onClient-onServer != sc.Client.LayerOverhead-sc.Server.LayerOverhead {
			t.Errorf("%s: Input layer costs %v / %v, want the bare layer overheads", name, onClient, onServer)
		}
		if got, want := plan.Candidates[0].Total-after.Total(), onClient-onServer; got != want {
			t.Errorf("%s: planner Input total exceeds OffloadAfterACK by %v, want %v", name, got, want)
		}
	}
}
