package sim

import (
	"testing"
	"time"

	"websnap/internal/sched"
)

// TestEngineServesAndSheds drives the engine without a sweep around it:
// one worker, a queue of two. Every request finishes exactly once, and the
// hook sees each with a consistent timeline.
func TestEngineServesAndSheds(t *testing.T) {
	const clients, requests = 8, 3
	const prep, post, service = time.Millisecond, time.Millisecond, 10 * time.Millisecond
	var served, shed, waited int
	eng := engine{
		clients: clients, requests: requests, thinkMax: time.Millisecond,
		stations: []*sched.Queue{sched.NewQueue(sched.Config{Workers: 1, QueueDepth: 2})},
		prep:     prep, post: post, local: 5 * time.Millisecond,
		service: service,
	}
	eng.done = func(req request, st int, now time.Duration, task *sched.Task) {
		if task == nil {
			shed++
			return
		}
		served++
		if task.QueueWait() > 0 {
			waited++
		}
		// The user event, the snapshot's prep, its wait in the queue, one
		// worker's service and the client's post, in that order.
		if task.QueueWait() < 0 || task.ExecTime() != service || now-req.start != prep+task.QueueWait()+service+post {
			t.Errorf("request timeline out of order: %+v queued %v, served %v, done at %v",
				req, task.QueueWait(), task.ExecTime(), now)
		}
	}
	out := eng.run()
	if len(out.latencies) != clients*requests || served+shed != clients*requests {
		t.Errorf("completed %d (served %d + shed %d), want %d", len(out.latencies), served, shed, clients*requests)
	}
	if shed != out.shed || shed == 0 {
		t.Errorf("shed = %d by hook, %d by engine; want equal and non-zero", shed, out.shed)
	}
	if waited == 0 {
		t.Error("no served request waited in the queue; the run never contended")
	}
	if got := eng.stations[0].Stats().Executed; got != int64(served) {
		t.Errorf("station executed %d, hook saw %d served", got, served)
	}
	if out.audit.Total != int64(clients*requests) {
		t.Errorf("%d decisions for %d requests, want exactly one each", out.audit.Total, clients*requests)
	}
}
