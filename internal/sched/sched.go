// Package sched is the edge server's inference scheduler: the layer
// between the connection listener and the snapshot runtime that turns "one
// goroutine per connection executes immediately" into a managed system —
// a bounded admission queue that rejects at once when full, and a worker
// pool that executes one session per worker turn.
//
// The paper's server (§III) executes one offloaded snapshot per connection;
// that collapses under many concurrent clients. Related work shows the
// production levers are server-side queue management and offload decisions
// that account for server queueing delay, not just compute ratio. The
// scheduler provides both: it bounds work, and it exports a load signal
// (queue depth, histogram-derived service time, estimated queueing delay)
// that the protocol layer carries back to clients as a load hint.
//
// Queue is the one admission rule; Scheduler runs it on the wall clock, and
// internal/sim's simulated edge servers run it on a virtual one.
package sched

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"websnap/internal/protocol"
	"websnap/internal/trace"
)

// Errors reported by Submit.
var (
	// ErrQueueFull is returned at once when the admission queue is at
	// capacity. The caller answers the client with an overload error plus
	// a load hint, so it falls back to local execution instead of timing
	// out: a saturated edge server sheds load, it does not accumulate
	// latency.
	ErrQueueFull = errors.New("sched: admission queue full")
	// ErrClosed is returned for submissions to a closed scheduler (or
	// Queue), and delivered to tasks cancelled while still queued at Close.
	ErrClosed = errors.New("sched: scheduler closed")
	// ErrExecutorPanic is delivered to a task whose executor panicked; the
	// error carries the panic value.
	ErrExecutorPanic = errors.New("sched: executor panic")
)

// Task is one scheduled unit of work (one offloaded snapshot session).
type Task struct {
	// Payload is the executor's working data (e.g. a decoded snapshot).
	Payload any
	// Bytes is the payload's admission-accounted size. Queues configured
	// with MaxQueueBytes count it against the byte budget while the task
	// waits; zero-byte tasks consume slots only.
	Bytes int64

	done chan taskResult

	// Timing, written by the Queue and published to the caller by the
	// done channel (Wait provides the happens-before edge).
	queuedAt  time.Time
	startedAt time.Time
	execDur   time.Duration
}

type taskResult struct {
	value any
	err   error
}

// NewTask wraps a payload for submission. The first argument is ignored.
//
// Deprecated: the unused first argument is kept only because
// benchmark/layers.go:281 still passes one, until a benchmark PR drops it.
func NewTask(_ string, payload any) *Task {
	return &Task{Payload: payload, done: make(chan taskResult, 1)}
}

// Wait blocks until the task has been executed (or cancelled) and returns
// the executor's result. Every task accepted by Submit is eventually
// finished: executed by a worker, or failed with ErrClosed during Close.
func (t *Task) Wait() (any, error) {
	r := <-t.done
	return r.value, r.err
}

func (t *Task) finish(v any, err error) {
	t.done <- taskResult{value: v, err: err}
}

// QueueWait returns how long the task sat in the admission queue before a
// worker picked it up (0 for tasks cancelled while queued). Valid after
// Wait returns, or after Start for a task driven through a Queue.
func (t *Task) QueueWait() time.Duration {
	if t.startedAt.IsZero() || t.queuedAt.IsZero() {
		return 0
	}
	return t.startedAt.Sub(t.queuedAt)
}

// ExecTime returns how long the session spent inside a worker, from Start
// to Finish. Valid after Wait returns, or after Finish.
func (t *Task) ExecTime() time.Duration { return t.execDur }

// Result is one task's outcome, produced by the executor.
type Result struct {
	Value any
	Err   error
}

// ExecFunc executes one task, handed over as a one-element slice, and
// returns its Result as the first element.
//
// Deprecated: the slice form is kept only because benchmark/layers.go:272
// still passes a func of this shape, until a benchmark PR drops it; the
// executor then becomes func(*Task) Result.
type ExecFunc func(tasks []*Task) []Result

// Config parametrizes a Scheduler.
type Config struct {
	// Workers is the worker-pool size. Zero or negative selects 1.
	Workers int
	// QueueDepth bounds the admission queue. Zero or negative selects
	// DefaultQueueDepth.
	QueueDepth int
	// MaxQueueBytes bounds the summed Task.Bytes of queued tasks, so a
	// burst of large snapshots saturates admission before it balloons the
	// heap. Zero means slots-only accounting. A task larger than the whole
	// budget is still admitted when the queue is byte-empty — otherwise it
	// could never run — and then occupies the budget alone.
	MaxQueueBytes int64
}

// DefaultQueueDepth is the admission-queue bound a zero QueueDepth selects.
const DefaultQueueDepth = 64

// Stats is a snapshot of the scheduler's state and counters.
type Stats struct {
	// Workers is the pool size; Busy is how many are executing now.
	Workers int
	Busy    int
	// QueueDepth is the current number of queued tasks; QueueCap its
	// bound.
	QueueDepth int
	QueueCap   int
	// QueueBytes is the summed Task.Bytes of queued tasks; QueueByteCap
	// its bound (0 = slots-only accounting).
	QueueBytes   int64
	QueueByteCap int64
	// Submitted counts accepted tasks; Rejected counts tasks turned away
	// at admission; Cancelled counts tasks failed while queued at Close.
	Submitted int64
	Rejected  int64
	Cancelled int64
	// Executed counts completed tasks.
	Executed int64
	// Batches equals Executed: every executor invocation runs one task.
	//
	// Deprecated: kept only because benchmark/layers.go:472 still reads
	// it, until a benchmark PR drops the reference.
	Batches int64
	// Service summarizes the per-task service time distribution, from the
	// scheduler's log-bucketed
	// histogram. Service.Mean replaces the earlier EWMA as the smoothed
	// load signal; the histogram additionally yields tail percentiles.
	Service trace.Quantiles
	// QueueWait summarizes how long admitted tasks waited for a worker.
	QueueWait trace.Quantiles
}

// QueueingDelay estimates how long a task submitted now would wait for a
// worker: the backlog ahead of it, served at the mean service rate by the
// whole pool.
func (s Stats) QueueingDelay() time.Duration {
	if s.Workers <= 0 {
		return 0
	}
	waiting := float64(s.QueueDepth)
	if s.Busy >= s.Workers {
		// All workers occupied: a new task also waits for a fraction of
		// the in-flight work to drain.
		waiting += float64(s.Busy) / 2
	}
	return time.Duration(waiting * float64(s.Service.Mean) / float64(s.Workers))
}

// Saturated reports whether the admission queue is full, on either the
// slot or the byte budget.
func (s Stats) Saturated() bool {
	if s.QueueCap > 0 && s.QueueDepth >= s.QueueCap {
		return true
	}
	return s.QueueByteCap > 0 && s.QueueBytes >= s.QueueByteCap
}

// Hint is the load hint a server advertises from these stats: the one place
// a Queue's state becomes the queueing estimate and saturation flag that
// clients and the roamer, live or simulated, select servers by. Until its
// first Finish a Queue has no service mean, so the estimate reads 0.
func (s Stats) Hint() *protocol.LoadHint {
	return &protocol.LoadHint{
		QueueDepth:        s.QueueDepth,
		QueueCap:          s.QueueCap,
		Workers:           s.Workers,
		Busy:              s.Busy,
		EWMAServiceMillis: float64(s.Service.Mean) / float64(time.Millisecond),
		QueueingMillis:    float64(s.QueueingDelay()) / float64(time.Millisecond),
		Saturated:         s.Saturated(),
	}
}

// Queue is the admission rule and the worker accounting: a bounded FIFO (a
// slot and a byte budget) in front of a worker count. It has no goroutines
// and no clock — each step takes the time it happens at — and is not safe
// for concurrent use.
type Queue struct {
	cfg    Config
	tasks  []*Task // FIFO admission queue, bounded by cfg.QueueDepth
	bytes  int64   // summed Bytes of queued tasks, bounded by cfg.MaxQueueBytes
	busy   int
	closed bool
	// submitted, rejected, cancelled and executed are the Stats counters.
	submitted, rejected, cancelled, executed int64
	// service and queueWait are the lock-free histograms behind the load
	// signal: per-task service time and admission-queue wait.
	service   trace.Histogram
	queueWait trace.Histogram
}

// NewQueue returns an empty queue. Zero or negative Workers selects 1, so a
// queued task always has a worker to wait for.
func NewQueue(cfg Config) *Queue {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	return &Queue{cfg: cfg, tasks: make([]*Task, 0, cfg.QueueDepth)}
}

// Admit queues t at now. A closed queue returns ErrClosed, one out of slots
// or bytes ErrQueueFull; both count t as rejected.
func (q *Queue) Admit(t *Task, now time.Time) error {
	if q.closed {
		q.rejected++
		return ErrClosed
	}
	if len(q.tasks) >= q.cfg.QueueDepth || !q.fitsBytes(t) {
		q.rejected++
		return ErrQueueFull
	}
	t.queuedAt = now
	q.tasks = append(q.tasks, t)
	q.bytes += t.Bytes
	q.submitted++
	return nil
}

// fitsBytes reports whether t fits the queue's byte budget. A task
// exceeding the whole budget is admitted only into a byte-empty queue: it
// could never fit otherwise, and forward progress beats a strict cap.
func (q *Queue) fitsBytes(t *Task) bool {
	if q.cfg.MaxQueueBytes <= 0 || t.Bytes <= 0 || q.bytes == 0 {
		return true
	}
	return q.bytes+t.Bytes <= q.cfg.MaxQueueBytes
}

// Start gives the oldest queued task a free worker at now, or returns nil.
func (q *Queue) Start(now time.Time) *Task {
	if len(q.tasks) == 0 || q.busy >= q.cfg.Workers {
		return nil
	}
	t := q.tasks[0]
	// Clear the slot: the backing array outlives the pop, and a finished
	// task still pins its snapshot payload.
	q.tasks[0] = nil
	q.tasks = q.tasks[1:]
	q.bytes -= t.Bytes
	q.busy++
	t.startedAt = now
	q.queueWait.Observe(now.Sub(t.queuedAt))
	return t
}

// Finish frees t's worker at now and records t's service time.
func (q *Queue) Finish(t *Task, now time.Time) {
	t.execDur = now.Sub(t.startedAt)
	q.busy--
	q.executed++
	q.service.Observe(t.execDur)
}

// Close stops admission and empties the queue: it returns the tasks that
// were waiting, counted as cancelled. Tasks already started still Finish.
func (q *Queue) Close() []*Task {
	q.closed = true
	cancelled := q.tasks
	q.tasks, q.bytes = nil, 0
	q.cancelled += int64(len(cancelled))
	return cancelled
}

// Closed reports whether Close has been called.
func (q *Queue) Closed() bool { return q.closed }

// Len returns the number of queued tasks.
func (q *Queue) Len() int { return len(q.tasks) }

// Executed returns how many tasks have finished.
func (q *Queue) Executed() int64 { return q.executed }

// Hint is Stats().Hint() without the histogram scans the hint does not read.
func (q *Queue) Hint() *protocol.LoadHint {
	st := q.counts()
	st.Service.Mean = q.service.Mean()
	return st.Hint()
}

// Stats returns the queue's state and counters, its histograms summarized.
func (q *Queue) Stats() Stats {
	st := q.counts()
	st.Service, st.QueueWait = q.service.Summary(), q.queueWait.Summary()
	return st
}

// counts is Stats without the histogram summaries.
func (q *Queue) counts() Stats {
	return Stats{
		Workers:      q.cfg.Workers,
		Busy:         q.busy,
		QueueDepth:   len(q.tasks),
		QueueCap:     q.cfg.QueueDepth,
		QueueBytes:   q.bytes,
		QueueByteCap: q.cfg.MaxQueueBytes,
		Submitted:    q.submitted,
		Rejected:     q.rejected,
		Cancelled:    q.cancelled,
		Executed:     q.executed,
		Batches:      q.executed,
	}
}

// Scheduler admits, queues, and executes tasks on a worker pool: one Queue
// under a mutex, and its workers as goroutines on the wall clock.
type Scheduler struct {
	exec ExecFunc

	mu sync.Mutex
	q  *Queue
	// wake is signalled on every enqueue (idle workers).
	wake chan struct{}
	quit chan struct{}
	wg   sync.WaitGroup
}

// New creates a scheduler and starts its workers. exec must be non-nil.
func New(cfg Config, exec ExecFunc) (*Scheduler, error) {
	if exec == nil {
		return nil, errors.New("sched: nil executor")
	}
	s := &Scheduler{
		exec: exec,
		q:    NewQueue(cfg),
		wake: make(chan struct{}, 1),
		quit: make(chan struct{}),
	}
	for i := 0; i < s.q.counts().Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Submit admits a task for execution. On success the caller should Wait on
// the task. A full queue returns ErrQueueFull at once; a closed scheduler
// returns ErrClosed.
func (s *Scheduler) Submit(t *Task) error {
	if t.done == nil {
		t.done = make(chan taskResult, 1)
	}
	s.mu.Lock()
	err := s.q.Admit(t, time.Now())
	s.mu.Unlock()
	if err == nil {
		signal(s.wake)
	}
	return err
}

// signal performs a non-blocking send on a capacity-1 notification channel.
func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// worker pulls one task at a time, executes it, and delivers its result.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for t := s.next(); t != nil; t = s.next() {
		s.run(t)
	}
}

// next blocks for the next queued task; nil means the scheduler is closing.
func (s *Scheduler) next() *Task {
	for {
		s.mu.Lock()
		// Read the clock under the lock: no task is started before its admission.
		t := s.q.Start(time.Now())
		backlog := s.q.Len() > 0
		s.mu.Unlock()
		if t != nil {
			if backlog {
				// wake has capacity 1: re-signal so sleeping sibling
				// workers see the remaining backlog.
				signal(s.wake)
			}
			return t
		}
		select {
		case <-s.wake:
		case <-s.quit: // Close has emptied the queue and stopped admission.
			return nil
		}
	}
}

// run executes one task and delivers its result.
func (s *Scheduler) run(t *Task) {
	r := s.safeExec(t)
	s.mu.Lock()
	s.q.Finish(t, time.Now())
	s.mu.Unlock()
	t.finish(r.Value, r.Err)
}

// safeExec invokes the executor, converting a panic into an
// ErrExecutorPanic error so one poisoned snapshot cannot take down the
// worker pool; the caller that waits on the task reports it.
func (s *Scheduler) safeExec(t *Task) (r Result) {
	defer func() {
		if p := recover(); p != nil {
			r = Result{Err: fmt.Errorf("%w: %v", ErrExecutorPanic, p)}
		}
	}()
	results := s.exec([]*Task{t})
	if len(results) == 0 {
		return Result{Err: errors.New("sched: executor returned no result")}
	}
	return results[0]
}

// Accepting reports whether the scheduler admits new submissions: true
// until Close is called. It is the scheduler's readiness signal.
func (s *Scheduler) Accepting() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.q.Closed()
}

// Stats returns a snapshot of the scheduler's state. The counters are read
// under the lock; the histograms are summarized after it is released.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	st := s.q.counts()
	s.mu.Unlock()
	st.Service, st.QueueWait = s.q.service.Summary(), s.q.queueWait.Summary()
	return st
}

// Close stops admission, cancels queued tasks with ErrClosed, and waits for
// in-flight executions to drain. Every accepted task is guaranteed to have
// been finished (executed or cancelled) when Close returns.
func (s *Scheduler) Close() {
	s.mu.Lock()
	first := !s.q.Closed()
	cancelled := s.q.Close() // empty after the first Close
	s.mu.Unlock()
	if first {
		close(s.quit)
	}
	for _, t := range cancelled {
		t.finish(nil, ErrClosed)
	}
	s.wg.Wait()
}
