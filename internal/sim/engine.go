package sim

import (
	"container/heap"
	"fmt"
	"sort"
	"time"

	"websnap/internal/obs"
)

// engine is the package's one discrete-event loop: closed-loop clients that
// think, prepare a snapshot, ship it to a station (an edge server's worker
// pool behind a bounded FIFO queue), get served by one worker or shed to local
// execution, and start their next request when the result is on screen.
// LoadSweep is this engine with one station, FleetSweep the same engine
// with N stations and the placement policy behind the route hook; a sweep
// supplies only the phase durations (from a Breakdown) and its hooks. An
// engine value runs once: run mutates its stations.
type engine struct {
	// clients closed-loop clients each perform requests inferences.
	clients, requests int
	// thinkMax bounds the deterministic pseudo-random pause before every
	// request (uniform in [0, thinkMax)). Without it identical clients
	// phase-lock into permanent cohorts and the run measures the lockstep
	// artifact, not the server.
	thinkMax time.Duration
	stations []station
	// queueDepth is every station's admission queue capacity.
	queueDepth int
	// prep is the client-side segment before the snapshot reaches the
	// station, service one worker's occupancy for a request, post the
	// client-side segment after the station responds, local the client's
	// own execution of a shed request.
	prep, post, local, service time.Duration
	// decision labels an offloaded request's audit record (Path, SplitLabel,
	// Predicted, Placement); the engine fills in server and latency.
	decision obs.Decision
	hooks
}

// hooks is everything a sweep adds to the engine. Any of them may be nil.
type hooks struct {
	// route picks the station for a client currently on station from (-1
	// at session start). It runs at the user-event time, so it sees the
	// stations' live queues; delay is added to prep for this request. With
	// a nil route every client stays on station 0.
	route func(client, from int) (st int, delay time.Duration)
	// reroute reports whether a client's n-th request (n >= 1) must ask
	// route again; the others ship straight to the client's current station.
	// The first request of a session is always routed.
	reroute func(n int) bool
	// hold runs when a snapshot reaches station st, before the admit-or-shed
	// rule; a positive return postpones the arrival by that long.
	hold func(st int) time.Duration
	// done observes one finished request at the time its result is on
	// screen: served is false when the station shed it and the client ran
	// it locally.
	done func(req request, st int, now time.Duration, served bool)
}

// station is one edge server: workers executors behind a bounded queue.
type station struct {
	name     string
	workers  int
	busy     int
	queue    []request
	executed int
}

type request struct {
	client   int
	start    time.Duration // when the user event fired
	arrive   time.Duration // when the station admitted the snapshot
	dispatch time.Duration // when a worker took it off the queue
}

// Event kinds.
const (
	evStart  = iota // the user event fires and the request asks for a station
	evArrive        // a snapshot reaches its station
	evDone          // a worker finishes a request
)

type event struct {
	at      time.Duration
	seq     int // push order: the tie-break between simultaneous events
	kind    int
	station int
	req     request
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	*h = old[:n-1]
	return ev
}

// outcome is the engine's one summary of a run.
type outcome struct {
	// latencies holds one entry per request, user event to result on
	// screen, sorted ascending.
	latencies []time.Duration
	// shed counts the requests a saturated station rejected.
	shed int
	// makespan is when the last result landed.
	makespan time.Duration
	// audit is the decision mix and prediction error over every request.
	audit obs.AuditSummary
}

// perSecond is n completions as a rate over the run's makespan.
func (o outcome) perSecond(n int) float64 {
	if o.makespan <= 0 {
		return 0
	}
	return float64(n) / o.makespan.Seconds()
}

// run plays every client's session to the end. It fails rather than report
// a short count if the event queue drains while requests are still waiting
// at a station — a station that can never serve them.
func (e *engine) run() (outcome, error) {
	var (
		events    eventHeap
		seq       int
		out       outcome
		audit     = obs.NewAuditor(obs.AuditorOptions{})
		cur       = make([]int, e.clients) // each client's current station
		remaining = make([]int, e.clients)
		rngs      = make([]xorshift, e.clients)
	)
	push := func(ev *event) {
		ev.seq = seq
		seq++
		heap.Push(&events, ev)
	}
	// start begins client c's next request after time t: the user thinks,
	// then the event fires. A routed request asks for its station at that
	// moment; any other starts preparing its snapshot at once.
	start := func(c int, t time.Duration) {
		n := e.requests - remaining[c]
		remaining[c]--
		req := request{client: c, start: t + rngs[c].think(e.thinkMax)}
		if e.route != nil && (n == 0 || e.reroute != nil && e.reroute(n)) {
			push(&event{at: req.start, kind: evStart, req: req})
			return
		}
		push(&event{at: req.start + e.prep, kind: evArrive, station: cur[c], req: req})
	}
	// complete is the one place a request ends: it records the request's
	// decision and latency, then starts the client's next request.
	complete := func(req request, st int, now time.Duration, served bool) {
		d := e.decision
		if !served {
			out.shed++
			d = obs.Decision{Path: obs.PathFallback, Reason: "overloaded", Placement: d.Placement}
		}
		d.Server = e.stations[st].name
		d.Measured, d.HintAge = now-req.start, -1
		audit.Record(d)
		out.latencies = append(out.latencies, now-req.start)
		if now > out.makespan {
			out.makespan = now
		}
		if e.done != nil {
			e.done(req, st, now, served)
		}
		if remaining[req.client] > 0 {
			start(req.client, now)
		}
	}
	dispatch := func(st int, t time.Duration) {
		s := &e.stations[st]
		for s.busy < s.workers && len(s.queue) > 0 {
			req := s.queue[0]
			s.queue = s.queue[1:]
			req.dispatch = t
			s.busy++
			push(&event{at: t + e.service, kind: evDone, station: st, req: req})
		}
	}

	for c := range cur {
		if e.route != nil {
			cur[c] = -1
		}
		remaining[c] = e.requests
		rngs[c] = xorshift{s: uint64(c)*2654435761 + 0x9e3779b97f4a7c15}
		start(c, 0)
	}
	for events.Len() > 0 {
		ev := heap.Pop(&events).(*event)
		switch ev.kind {
		case evStart:
			c := ev.req.client
			st, delay := e.route(c, cur[c])
			cur[c] = st
			push(&event{at: ev.at + e.prep + delay, kind: evArrive, station: st, req: ev.req})
		case evArrive:
			if e.hold != nil {
				if d := e.hold(ev.station); d > 0 {
					push(&event{at: ev.at + d, kind: evArrive, station: ev.station, req: ev.req})
					break
				}
			}
			s := &e.stations[ev.station]
			if s.busy >= s.workers && len(s.queue) >= e.queueDepth {
				// Every worker busy and the queue full: the station sheds,
				// the client runs the request from its still-live app state.
				complete(ev.req, ev.station, ev.at+e.local, false)
				break
			}
			ev.req.arrive = ev.at
			s.queue = append(s.queue, ev.req)
			dispatch(ev.station, ev.at)
		case evDone:
			s := &e.stations[ev.station]
			s.busy--
			s.executed++
			complete(ev.req, ev.station, ev.at+e.post, true)
			dispatch(ev.station, ev.at)
		}
	}
	for i := range e.stations {
		if n := len(e.stations[i].queue); n > 0 {
			return outcome{}, fmt.Errorf("sim: run ended with %d requests queued at station %d (%d workers)",
				n, i, e.stations[i].workers)
		}
	}
	sort.Slice(out.latencies, func(i, j int) bool { return out.latencies[i] < out.latencies[j] })
	out.audit = audit.Summary()
	return out, nil
}

// xorshift is a tiny deterministic PRNG for per-client think-time jitter.
type xorshift struct{ s uint64 }

func (r *xorshift) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

func (r *xorshift) think(max time.Duration) time.Duration {
	return time.Duration(r.next() % uint64(max))
}

// percentile is the nearest-rank q-quantile of a sorted latency slice.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func millis(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}
