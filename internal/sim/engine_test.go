package sim

import (
	"strings"
	"testing"
	"time"
)

// TestEngineReportsStrandedRequests: a station that can never serve what it
// admitted ends the run with an error, not with a short completion count.
func TestEngineReportsStrandedRequests(t *testing.T) {
	eng := engine{
		clients: 3, requests: 2, thinkMax: time.Millisecond,
		stations:   []station{{workers: 0}},
		queueDepth: 4, service: time.Millisecond,
	}
	_, err := eng.run()
	if err == nil || !strings.Contains(err.Error(), "3 requests queued") {
		t.Errorf("run with a zero-worker station: err = %v, want the 3 stranded requests reported", err)
	}
}

// TestEngineServesAndSheds drives the engine without a sweep around it:
// one worker, a queue of two. Every request finishes exactly once, and the
// hook sees each with a consistent timeline.
func TestEngineServesAndSheds(t *testing.T) {
	const clients, requests = 8, 3
	var served, shed int
	eng := engine{
		clients: clients, requests: requests, thinkMax: time.Millisecond,
		stations:   []station{{workers: 1}},
		queueDepth: 2,
		prep:       time.Millisecond, post: time.Millisecond, local: 5 * time.Millisecond,
		service: 10 * time.Millisecond,
	}
	eng.done = func(req request, st int, now time.Duration, isServed bool) {
		if !isServed {
			shed++
			return
		}
		served++
		if !(req.start < req.arrive && req.arrive <= req.dispatch && req.dispatch < now) {
			t.Errorf("request timeline out of order: %+v done at %v", req, now)
		}
	}
	out, err := eng.run()
	if err != nil {
		t.Fatal(err)
	}
	if len(out.latencies) != clients*requests || served+shed != clients*requests {
		t.Errorf("completed %d (served %d + shed %d), want %d", len(out.latencies), served, shed, clients*requests)
	}
	if shed != out.shed || shed == 0 {
		t.Errorf("shed = %d by hook, %d by engine; want equal and non-zero", shed, out.shed)
	}
	if got := eng.stations[0].executed; got != served {
		t.Errorf("station executed %d, hook saw %d served", got, served)
	}
	if out.audit.Total != int64(clients*requests) {
		t.Errorf("%d decisions for %d requests, want exactly one each", out.audit.Total, clients*requests)
	}
}
