package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"websnap/internal/client"
	"websnap/internal/edge"
	"websnap/internal/mlapp"
	"websnap/internal/models"
	"websnap/internal/nn"
	"websnap/internal/snapshot"
	"websnap/internal/webapp"
)

// The mux experiment measures stream multiplexing end to end over real
// sockets: a live edge server serves N concurrent offload sessions twice
// — once with one TCP connection per session and once with every session
// as a logical stream on a single shared connection. Both cells run identical snapshots through the
// production client and server code; the table reports per-request tail
// latency and the connection count each topology needs.

// muxJSONFile is where the machine-readable results are written
// (a variable so tests can redirect it away from the working tree).
var muxJSONFile = "BENCH_mux.json"

// muxStreamCounts is the concurrency axis of the sweep; the acceptance
// bar of the mux refactor is the 64-stream point on one connection.
var muxStreamCounts = []int{8, 32, 64}

// muxEventsPerStream is how many offload round trips each session drives.
var muxEventsPerStream = 6

type muxRow struct {
	Mode     string `json:"mode"` // conn-per-session | mux-one-conn
	Streams  int    `json:"streams"`
	Conns    int    `json:"connections"`
	Requests int    `json:"requests"`
	// Per-request latency percentiles across every stream, milliseconds.
	P50Millis float64 `json:"p50_ms"`
	P95Millis float64 `json:"p95_ms"`
	P99Millis float64 `json:"p99_ms"`
	// WallMillis is the whole cell's start-to-drain time.
	WallMillis float64 `json:"wall_ms"`
	Throughput float64 `json:"requests_per_sec"`
}

const muxBenchApp = "mux-bench"

func muxExp(w io.Writer) error {
	cat := webapp.NewCatalog()
	if err := cat.Add(mlapp.FullRegistry()); err != nil {
		return err
	}
	srv, err := edge.NewServer(edge.Config{
		Catalog: cat, Installed: true,
		Workers: 4, QueueDepth: 4 * 64, MaxBatch: 8,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan struct{})
	go func() { defer close(served); srv.Serve(ln) }()
	defer func() { srv.Close(); <-served }()
	addr := ln.Addr().String()

	model, err := models.BuildTinyNet("tiny", 3)
	if err != nil {
		return err
	}
	encoded, err := muxSnapshot(model)
	if err != nil {
		return err
	}
	// Pre-send once: the server's session store is shared across
	// connections, and every snapshot names the model spec-only, so both
	// cells measure pure offload round trips.
	setup, err := client.Dial(addr)
	if err != nil {
		return err
	}
	if err := setup.PreSendModel(muxBenchApp, "tiny", model); err != nil {
		setup.Close()
		return err
	}
	setup.Close()

	var rows []muxRow
	for _, streams := range muxStreamCounts {
		base, err := muxCell("conn-per-session", streams, func() ([]*client.Conn, error) {
			conns := make([]*client.Conn, streams)
			for i := range conns {
				c, err := client.Dial(addr)
				if err != nil {
					return conns, err
				}
				conns[i] = c
			}
			return conns, nil
		}, encoded)
		if err != nil {
			return err
		}
		mux, err := muxCell("mux-one-conn", streams, func() ([]*client.Conn, error) {
			c, err := client.Dial(addr)
			if err != nil {
				return nil, err
			}
			shared := make([]*client.Conn, streams)
			for i := range shared {
				shared[i] = c
			}
			return shared, nil
		}, encoded)
		if err != nil {
			return err
		}
		rows = append(rows, base, mux)
	}

	fmt.Fprintf(w, "Mux sweep: %d offloads per session, conn-per-session vs one multiplexed connection (TinyNet)\n", muxEventsPerStream)
	fmt.Fprintln(w, "Mode\tStreams\tConns\tRequests\tp50 (ms)\tp95 (ms)\tp99 (ms)\tWall (ms)\tReq/s")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%.2f\t%.2f\t%.2f\t%.1f\t%.0f\n",
			r.Mode, r.Streams, r.Conns, r.Requests,
			r.P50Millis, r.P95Millis, r.P99Millis, r.WallMillis, r.Throughput)
	}
	data, err := json.MarshalIndent(struct {
		Experiment string   `json:"experiment"`
		Rows       []muxRow `json:"rows"`
	}{"mux", rows}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(muxJSONFile, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("mux: write %s: %w", muxJSONFile, err)
	}
	fmt.Fprintf(w, "(raw numbers written to %s)\n", muxJSONFile)
	return nil
}

// muxSnapshot builds the encoded snapshot every session replays: a full
// TinyNet app with its image loaded and the inference click dispatched, its
// model a reference to the pre-sent one.
func muxSnapshot(model *nn.Network) ([]byte, error) {
	app, err := mlapp.NewFullApp(muxBenchApp, "tiny", model, []string{"x", "y", "z"})
	if err != nil {
		return nil, err
	}
	if err := mlapp.LoadImage(app, mlapp.SyntheticImage(3*16*16, 1)); err != nil {
		return nil, err
	}
	app.DispatchEvent(webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick})
	snap, err := snapshot.Capture(app, snapshot.Options{})
	if err != nil {
		return nil, err
	}
	return snap.Encode()
}

// muxCell runs one (mode, streams) cell: dial() supplies each session's
// connection (distinct conns or one shared mux conn), then every session
// drives muxEventsPerStream offloads concurrently.
func muxCell(mode string, streams int, dial func() ([]*client.Conn, error), encoded []byte) (muxRow, error) {
	conns, err := dial()
	if err != nil {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
		return muxRow{}, err
	}
	unique := map[*client.Conn]bool{}
	for _, c := range conns {
		unique[c] = true
	}
	defer func() {
		for c := range unique {
			c.Close()
		}
	}()

	latencies := make([][]time.Duration, streams)
	errs := make(chan error, streams)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			for ev := 0; ev < muxEventsPerStream; ev++ {
				t0 := time.Now()
				result, _, err := conns[i].OffloadSnapshot(muxBenchApp, encoded, false)
				if err != nil {
					errs <- fmt.Errorf("%s stream %d event %d: %w", mode, i, ev, err)
					return
				}
				if len(result) == 0 {
					errs <- fmt.Errorf("%s stream %d event %d: empty result", mode, i, ev)
					return
				}
				latencies[i] = append(latencies[i], time.Since(t0))
			}
		}(i)
	}
	wall0 := time.Now()
	close(start)
	wg.Wait()
	wall := time.Since(wall0)
	close(errs)
	for err := range errs {
		return muxRow{}, err
	}

	var all []time.Duration
	for _, ls := range latencies {
		all = append(all, ls...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
	pct := func(p float64) float64 {
		if len(all) == 0 {
			return 0
		}
		idx := int(p * float64(len(all)-1))
		return float64(all[idx]) / float64(time.Millisecond)
	}
	return muxRow{
		Mode: mode, Streams: streams, Conns: len(unique),
		Requests:  len(all),
		P50Millis: pct(0.50), P95Millis: pct(0.95), P99Millis: pct(0.99),
		WallMillis: float64(wall) / float64(time.Millisecond),
		Throughput: float64(len(all)) / wall.Seconds(),
	}, nil
}
