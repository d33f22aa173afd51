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
package sched

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

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
	// ErrClosed is returned for submissions to a closed scheduler, and
	// delivered to tasks cancelled while still queued at Close.
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

	// Timing, written by the scheduler and published to the caller by the
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
// Wait returns.
func (t *Task) QueueWait() time.Duration {
	if t.startedAt.IsZero() || t.queuedAt.IsZero() {
		return 0
	}
	return t.startedAt.Sub(t.queuedAt)
}

// ExecTime returns the wall-clock duration of the task's execution — the
// time the session spent inside a worker. Valid after Wait returns.
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

// Scheduler admits, queues, and executes tasks on a worker pool.
type Scheduler struct {
	cfg  Config
	exec ExecFunc

	mu          sync.Mutex
	queue       []*Task // FIFO admission queue, bounded by cfg.QueueDepth
	queuedBytes int64   // summed Bytes of queued tasks, bounded by cfg.MaxQueueBytes
	closed      bool
	// wake is signalled on every enqueue (idle workers).
	wake chan struct{}
	quit chan struct{}
	wg   sync.WaitGroup

	busy                atomic.Int64
	submitted, rejected atomic.Int64
	cancelled           atomic.Int64
	executed            atomic.Int64

	// service and queueWait are the lock-free stage-latency histograms
	// behind the load signal: per-task service time and admission-queue
	// wait. They replace the earlier
	// EWMA-only signal — the mean falls out of the histogram, and the
	// tails (p95/p99) come with it.
	service   trace.Histogram
	queueWait trace.Histogram
}

// New creates a scheduler and starts its workers. exec must be non-nil.
func New(cfg Config, exec ExecFunc) (*Scheduler, error) {
	if exec == nil {
		return nil, errors.New("sched: nil executor")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	s := &Scheduler{
		cfg:   cfg,
		exec:  exec,
		queue: make([]*Task, 0, cfg.QueueDepth),
		wake:  make(chan struct{}, 1),
		quit:  make(chan struct{}),
	}
	for i := 0; i < cfg.Workers; i++ {
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
	if s.closed {
		s.mu.Unlock()
		s.rejected.Add(1)
		return ErrClosed
	}
	if len(s.queue) >= s.cfg.QueueDepth || !s.admitBytesLocked(t) {
		s.mu.Unlock()
		s.rejected.Add(1)
		return ErrQueueFull
	}
	t.queuedAt = time.Now()
	s.queue = append(s.queue, t)
	s.queuedBytes += t.Bytes
	s.mu.Unlock()
	s.submitted.Add(1)
	signal(s.wake)
	return nil
}

// admitBytesLocked reports whether t fits the queue's byte budget. A task
// exceeding the whole budget is admitted only into a byte-empty queue: it
// could never fit otherwise, and forward progress beats a strict cap.
func (s *Scheduler) admitBytesLocked(t *Task) bool {
	if s.cfg.MaxQueueBytes <= 0 || t.Bytes <= 0 {
		return true
	}
	if s.queuedBytes == 0 {
		return true
	}
	return s.queuedBytes+t.Bytes <= s.cfg.MaxQueueBytes
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
	for {
		t, ok := s.next()
		if !ok {
			return
		}
		s.run(t)
	}
}

// next blocks for the next queued task. ok=false means the scheduler is
// closing.
func (s *Scheduler) next() (*Task, bool) {
	for {
		s.mu.Lock()
		if len(s.queue) > 0 {
			t := s.queue[0]
			// Clear the slot: the backing array outlives the pop, and a
			// finished task still pins its snapshot payload.
			s.queue[0] = nil
			s.queue = s.queue[1:]
			s.queuedBytes -= t.Bytes
			backlog := len(s.queue) > 0
			s.mu.Unlock()
			if backlog {
				// wake has capacity 1: re-signal so sleeping sibling
				// workers see the remaining backlog.
				signal(s.wake)
			}
			return t, true
		}
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return nil, false
		}
		select {
		case <-s.wake:
		case <-s.quit:
			// Drain check: Close cancels queued tasks itself, so an
			// empty queue here means this worker is done.
			s.mu.Lock()
			empty := len(s.queue) == 0
			s.mu.Unlock()
			if empty {
				return nil, false
			}
		}
	}
}

// run executes one task and delivers its result.
func (s *Scheduler) run(t *Task) {
	s.busy.Add(1)
	t.startedAt = time.Now()
	if !t.queuedAt.IsZero() {
		s.queueWait.Observe(t.startedAt.Sub(t.queuedAt))
	}
	r := s.safeExec(t)
	t.execDur = time.Since(t.startedAt)
	s.busy.Add(-1)
	s.service.Observe(t.execDur)
	s.executed.Add(1)
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
	return !s.closed
}

// Stats returns a consistent-enough snapshot of the scheduler's state.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	depth := len(s.queue)
	qbytes := s.queuedBytes
	s.mu.Unlock()
	executed := s.executed.Load()
	return Stats{
		Workers:      s.cfg.Workers,
		Busy:         int(s.busy.Load()),
		QueueDepth:   depth,
		QueueCap:     s.cfg.QueueDepth,
		QueueBytes:   qbytes,
		QueueByteCap: s.cfg.MaxQueueBytes,
		Submitted:    s.submitted.Load(),
		Rejected:     s.rejected.Load(),
		Cancelled:    s.cancelled.Load(),
		Executed:     executed,
		Batches:      executed,
		Service:      s.service.Summary(),
		QueueWait:    s.queueWait.Summary(),
	}
}

// Close stops admission, cancels queued tasks with ErrClosed, and waits for
// in-flight executions to drain. Every accepted task is guaranteed to have
// been finished (executed or cancelled) when Close returns.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	cancelled := s.queue
	s.queue = nil
	s.queuedBytes = 0
	s.mu.Unlock()
	close(s.quit)
	for _, t := range cancelled {
		s.cancelled.Add(1)
		t.finish(nil, ErrClosed)
	}
	s.wg.Wait()
}
