package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"syscall"
	"time"

	"websnap/internal/client"
	"websnap/internal/core"
	"websnap/internal/edge"
	"websnap/internal/mlapp"
	"websnap/internal/models"
	"websnap/internal/netem"
	"websnap/internal/nn"
	"websnap/internal/tensor"
	"websnap/internal/webapp"
)

// workload is one fixed set of inputs and a way of driving them. Every
// workload is a closed loop: each client sends its next click only after the
// previous label is on screen.
type workload struct {
	name    string
	model   string
	mode    core.Mode
	split   string // pinned partition point, partial mode only
	quality nn.Precision
	// clients is the closed-loop client count; more than one share a single
	// multiplexed connection.
	clients int
	// link shapes the client's socket; the zero profile is plain loopback.
	link netem.Profile
	// setups is how many times set-up is repeated for the setup_s median.
	setups int
	// traced is the request count of the traced pass.
	traced int
}

const tinyNet = "tinynet"

// workloads is the benchmark's fixed table; BENCHMARK.json records why each
// one exists. The self-test swaps the wifi link for a fast one.
var workloads = []*workload{
	{name: "tiny_full_closed", model: tinyNet, mode: core.ModeFull,
		quality: nn.PrecFloat32, clients: 1, setups: 3, traced: 2000},
	{name: "googlenet_full_closed", model: models.GoogLeNet, mode: core.ModeFull,
		quality: nn.PrecFloat32, clients: 1, setups: 3, traced: 12},
	{name: "agenet_partial_wifi", model: models.AgeNet, mode: core.ModePartial, split: "1st_pool",
		quality: nn.PrecFloat32, clients: 1, link: netem.WiFi30Mbps, setups: 3, traced: 12},
	{name: "googlenet_int8_mux2", model: models.GoogLeNet, mode: core.ModeFull,
		quality: nn.PrecInt8, clients: 2, setups: 3, traced: 12},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// poolSize is the number of distinct input images a workload cycles through.
const poolSize = 8

// requestTimeout turns a hung server into a failed request. The slowest
// legitimate round trip is the wifi workload's 45 MB model pre-send (~13 s).
const requestTimeout = 60 * time.Second

// Every set-up ends with a warm-up of warmupRequests per client or
// warmupTime, whichever is longer. The self-test shortens the time.
const warmupRequests = 3

var warmupTime = 1500 * time.Millisecond

func buildModel(name string) (*nn.Network, []string, error) {
	var (
		m   *nn.Network
		err error
	)
	if name == tinyNet {
		m, err = models.BuildTinyNet(tinyNet, 3)
	} else {
		m, err = models.Build(name)
	}
	if err != nil {
		return nil, nil, err
	}
	out, err := m.OutputShape()
	if err != nil {
		return nil, nil, err
	}
	labels := make([]string, out[len(out)-1])
	for i := range labels {
		labels[i] = fmt.Sprintf("label_%04d", i)
	}
	return m, labels, nil
}

// inputs makes the workload's image pool from the seed; the program under
// test only ever sees these images.
func inputs(m *nn.Network, seed uint64) []webapp.Float32Array {
	volume := 1
	for _, d := range m.InputShape() {
		volume *= d
	}
	pool := make([]webapp.Float32Array, poolSize)
	for i := range pool {
		pool[i] = mlapp.SyntheticImage(volume, seed*poolSize+uint64(i))
	}
	return pool
}

// answer is the oracle's verdict for one pool image.
type answer struct {
	label  string
	scores webapp.Float32Array
}

// env is one set-up workload: a live edge server on a loopback listener, the
// client connection, and one session per closed-loop client.
type env struct {
	w      *workload
	net    *nn.Network
	labels []string
	srv    *edge.Server
	served chan struct{}
	conn   *client.Conn
	sess   []*core.Session
	images []webapp.Float32Array
	oracle []answer
	// calls counts Classify calls on all sessions since set-up, warm-up
	// included; it must reconcile with the client's and server's counters.
	calls int
	// newSession and presend are the summed NewSession and
	// WaitForModelUpload times of this set-up.
	newSession, presend time.Duration
	// wireBytes[i] is request+result bytes of pool image i's offload.
	wireBytes []int64
	// log receives one line per kind of failure.
	log io.Writer
}

// setup brings a workload up to the point where the first timed request can
// be sent: model build, server start, dial (+ mux negotiation), sessions,
// model pre-send acknowledged, warm-up.
func setup(w *workload, seed uint64, log io.Writer) (*env, error) {
	e := &env{w: w, wireBytes: make([]int64, poolSize), log: log}
	done := false
	defer func() {
		if !done {
			e.close()
		}
	}()
	var err error
	if e.net, e.labels, err = buildModel(w.model); err != nil {
		return nil, err
	}
	e.images = inputs(e.net, seed)
	if e.srv, err = core.NewEdgeServer(nil); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.served = make(chan struct{})
	go func() {
		defer close(e.served)
		_ = e.srv.Serve(ln) // returns once Close has shut the listener
	}()
	e.conn, err = client.DialWrapped(ln.Addr().String(), func(c net.Conn) net.Conn {
		return netem.Shape(c, w.link)
	})
	if err != nil {
		return nil, err
	}
	e.conn.SetRequestTimeout(requestTimeout)
	if w.clients > 1 {
		ok, err := e.conn.NegotiateMux(w.clients)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, errors.New("server refused mux negotiation")
		}
	}
	for c := 0; c < w.clients; c++ {
		t0 := time.Now()
		s, err := core.NewSession(core.SessionConfig{
			AppID:      fmt.Sprintf("%s-%d", w.name, c),
			ModelName:  w.model,
			Model:      e.net,
			Labels:     e.labels,
			Mode:       w.mode,
			Conn:       e.conn,
			PreSend:    true,
			Quality:    w.quality,
			SplitLabel: w.split,
		})
		if err != nil {
			return nil, err
		}
		e.newSession += time.Since(t0)
		e.sess = append(e.sess, s)
		t0 = time.Now()
		if err := s.WaitForModelUpload(); err != nil {
			return nil, err
		}
		e.presend += time.Since(t0)
	}
	// Warm-up lets heap size, pools and plan caches settle. Its answers are
	// not checked (the oracle comes after set-up), its offloads still have
	// to reconcile.
	warmStart := time.Now()
	for i := 0; i < warmupRequests || time.Since(warmStart) < warmupTime; i++ {
		for _, s := range e.sess {
			e.calls++
			if _, err := s.Classify(e.images[i%poolSize]); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	done = true
	return e, nil
}

// close stops the connection and the server and waits for Serve to return.
func (e *env) close() {
	if e.conn != nil {
		e.conn.Close()
	}
	if e.srv != nil {
		e.srv.Close()
	}
	if e.served != nil {
		<-e.served
	}
}

// computeOracle labels every pool image with a ModeLocal session at the
// workload's precision. Client and server run the same code on the same
// host, so every offloaded answer must equal it exactly, scores included.
func (e *env) computeOracle() error {
	local, err := core.NewSession(core.SessionConfig{
		AppID: "oracle", ModelName: e.w.model, Model: e.net, Labels: e.labels,
		Mode: core.ModeLocal, Quality: e.w.quality,
	})
	if err != nil {
		return err
	}
	e.oracle = make([]answer, len(e.images))
	for i, img := range e.images {
		label, err := local.Classify(img)
		if err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		e.oracle[i] = answer{label: label, scores: scoresOf(local)}
	}
	return nil
}

func scoresOf(s *core.Session) webapp.Float32Array {
	v, _ := s.App().Global(mlapp.GlobalScores)
	arr, _ := v.(webapp.Float32Array)
	return append(webapp.Float32Array(nil), arr...)
}

// matches reports whether the session's on-screen answer equals the oracle's.
func (a answer) matches(label string, scores webapp.Float32Array) bool {
	if label != a.label || len(scores) != len(a.scores) {
		return false
	}
	for i, v := range scores {
		if v != a.scores[i] {
			return false
		}
	}
	return true
}

// window is what one measured interval of closed-loop driving observed.
type window struct {
	latMS             []float64
	attempted, failed int
	elapsed, cpu      time.Duration
	allocBytes        uint64
	liveHeapBytes     uint64
	poolGets          int64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// drive runs every client's closed loop for d and checks each answer.
func (e *env) drive(d time.Duration) window {
	type clientLog struct {
		latMS             []float64
		attempted, failed int
	}
	logs := make([]clientLog, len(e.sess))
	var bytesMu sync.Mutex

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	gets0 := tensor.ReadPoolStats().Gets
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c, s := range e.sess {
		wg.Add(1)
		go func(c int, s *core.Session) {
			defer wg.Done()
			l := &logs[c]
			for r := c * poolSize / len(e.sess); time.Now().Before(deadline); r++ {
				idx := r % poolSize
				t0 := time.Now()
				label, err := s.Classify(e.images[idx])
				lat := time.Since(t0)
				l.attempted++
				if err == nil && !e.oracle[idx].matches(label, scoresOf(s)) {
					err = fmt.Errorf("wrong answer for image %d: got %q, want %q", idx, label, e.oracle[idx].label)
				}
				if err != nil {
					if l.failed++; l.failed == 1 { // one line per client, not thousands
						fmt.Fprintf(e.log, "%s: request failed: %v\n", e.w.name, err)
					}
					continue
				}
				l.latMS = append(l.latMS, ms(lat))
				st := s.Stats()
				bytesMu.Lock()
				e.wireBytes[idx] = st.LastSnapshotBytes + st.LastResultBytes
				bytesMu.Unlock()
			}
		}(c, s)
	}
	wg.Wait()
	win := window{elapsed: time.Since(start), cpu: cpuTime() - cpu0}
	runtime.ReadMemStats(&after)
	win.allocBytes = after.TotalAlloc - before.TotalAlloc
	win.poolGets = tensor.ReadPoolStats().Gets - gets0
	for _, l := range logs {
		win.latMS = append(win.latMS, l.latMS...)
		win.attempted += l.attempted
		win.failed += l.failed
	}
	e.calls += win.attempted
	// Live heap is read before the server closes, so stores, plans and
	// models still count. Two collections empty the sync.Pools (a pool
	// survives one), so the figure does not depend on when the last
	// background collection happened to run.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	win.liveHeapBytes = after.HeapAlloc
	return win
}

// clientStats sums the counters of every session's offloader.
func (e *env) clientStats() client.Stats {
	var st client.Stats
	for _, s := range e.sess {
		one := s.Stats()
		st.Offloads += one.Offloads
		st.LocalFallbacks += one.LocalFallbacks
		st.Redials += one.Redials
		st.LoadSheds += one.LoadSheds
	}
	return st
}

// reconcile checks the counters every layer keeps against the calls made; it
// returns one complaint per broken invariant. A silent local fallback or a
// request the server never executed shows here even when the label was right.
func (e *env) reconcile() []string {
	var bad []string
	st := e.clientStats()
	m := e.srv.Metrics()
	if st.Offloads != e.calls {
		bad = append(bad, fmt.Sprintf("client offloads %d != classify calls %d", st.Offloads, e.calls))
	}
	if n := st.LocalFallbacks + st.LoadSheds; n != 0 {
		bad = append(bad, fmt.Sprintf("%d request(s) ran locally", n))
	}
	if st.Redials != 0 {
		bad = append(bad, fmt.Sprintf("%d redial(s)", st.Redials))
	}
	if m.SnapshotsExecuted < int64(e.calls) {
		bad = append(bad, fmt.Sprintf("server executed %d snapshots for %d calls", m.SnapshotsExecuted, e.calls))
	}
	if m.Errors != 0 {
		bad = append(bad, fmt.Sprintf("server answered %d error(s)", m.Errors))
	}
	return bad
}
