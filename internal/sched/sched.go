// Package sched is the edge server's inference scheduler: the layer
// between the connection listener and the snapshot runtime that turns "one
// goroutine per connection executes immediately" into a managed system —
// a bounded admission queue with a configurable overload policy, a worker
// pool executing sessions concurrently, and per-model micro-batching that
// coalesces rear-inference offloads sharing the same pre-sent model into a
// single batched forward pass.
//
// The paper's server (§III) executes one offloaded snapshot per connection;
// that collapses under many concurrent clients. Related work shows the
// production levers are server-side queue management (DEFER's pipelined
// batched edge inference) and offload decisions that account for server
// queueing delay, not just compute ratio. The scheduler provides both: it
// bounds and batches work, and it exports a load signal (queue depth,
// histogram-derived service time, estimated queueing delay) that the
// protocol layer carries back to clients as a load hint.
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
	// ErrQueueFull is returned when the admission queue is at capacity
	// (immediately under PolicyReject, after QueueWait under PolicyBlock).
	ErrQueueFull = errors.New("sched: admission queue full")
	// ErrClosed is returned for submissions to a closed scheduler, and
	// delivered to tasks cancelled while still queued at Close.
	ErrClosed = errors.New("sched: scheduler closed")
	// ErrExecutorPanic is delivered to every task of a batch whose executor
	// panicked; the error carries the panic value.
	ErrExecutorPanic = errors.New("sched: executor panic")
)

// Policy selects what Submit does when the admission queue is full.
type Policy int

const (
	// PolicyReject turns the request away immediately with ErrQueueFull.
	// The caller answers the client with an overload error plus a load
	// hint, letting it fall back to local execution at once instead of
	// timing out — the default, because a saturated edge server must shed
	// load, not accumulate latency.
	PolicyReject Policy = iota
	// PolicyBlock waits up to QueueWait for space, then fails with
	// ErrQueueFull. Useful when clients have no local fallback.
	PolicyBlock
)

// Task is one scheduled unit of work (one offloaded snapshot session).
type Task struct {
	// BatchKey groups tasks that may be coalesced into one batched
	// execution: tasks are only ever batched together when their keys are
	// equal and non-empty. The edge server derives the key from the app's
	// code hash, the pending event, and the fingerprints of the pre-sent
	// models, so only requests provably running the same handler against
	// byte-identical weights coalesce.
	BatchKey string
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
	batchSize int
}

type taskResult struct {
	value any
	err   error
}

// NewTask wraps a payload for submission.
func NewTask(batchKey string, payload any) *Task {
	return &Task{BatchKey: batchKey, Payload: payload, done: make(chan taskResult, 1)}
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

// ExecTime returns the wall-clock duration of the execution batch the task
// rode in — the time the session spent inside a worker. Valid after Wait
// returns.
func (t *Task) ExecTime() time.Duration { return t.execDur }

// BatchSize returns how many coalesced tasks shared the execution batch
// (1 = solo, 0 = never executed). Valid after Wait returns.
func (t *Task) BatchSize() int { return t.batchSize }

// Result is one task's outcome, produced by the executor.
type Result struct {
	Value any
	Err   error
}

// ExecFunc executes a batch of tasks. The slice has at least one element;
// elements beyond the first are present only when their BatchKeys all equal
// the first's. It must return exactly one Result per task, in order.
type ExecFunc func(batch []*Task) []Result

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
	// Policy selects the overload behavior (reject vs block).
	Policy Policy
	// QueueWait bounds how long PolicyBlock waits for queue space. Zero
	// selects DefaultQueueWait.
	QueueWait time.Duration
	// MaxBatch caps how many same-key tasks one worker coalesces into a
	// single execution. Zero or one disables batching.
	MaxBatch int
	// BatchWindow is how long a worker holds an under-filled batch open
	// for same-key arrivals. Zero means batch only the backlog already
	// queued at dequeue time — batching then costs no latency when the
	// server is idle and kicks in exactly when a queue has formed.
	BatchWindow time.Duration
}

// Defaults for Config zero values.
const (
	DefaultQueueDepth = 64
	DefaultQueueWait  = 2 * time.Second
)

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
	// Executed counts completed tasks; Batches counts executor
	// invocations (so Executed/Batches is the mean batch size);
	// BatchedTasks counts tasks that ran in a batch of 2 or more.
	Executed     int64
	Batches      int64
	BatchedTasks int64
	// Service summarizes the per-task service time distribution (batch
	// wall time divided by batch size), from the scheduler's log-bucketed
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

// Scheduler admits, queues, batches, and executes tasks on a worker pool.
type Scheduler struct {
	cfg  Config
	exec ExecFunc

	mu          sync.Mutex
	queue       []*Task // FIFO admission queue, bounded by cfg.QueueDepth
	queuedBytes int64   // summed Bytes of queued tasks, bounded by cfg.MaxQueueBytes
	closed      bool
	// space is signalled when queue slots free up (PolicyBlock waiters).
	space chan struct{}
	// wake is signalled on every enqueue (idle workers).
	wake chan struct{}
	quit chan struct{}
	wg   sync.WaitGroup

	busy                atomic.Int64
	submitted, rejected atomic.Int64
	cancelled           atomic.Int64
	executed, batches   atomic.Int64
	batchedTasks        atomic.Int64

	// service and queueWait are the lock-free stage-latency histograms
	// behind the load signal: per-task service time (batch wall time /
	// batch size) and admission-queue wait. They replace the earlier
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
	if cfg.QueueWait <= 0 {
		cfg.QueueWait = DefaultQueueWait
	}
	if cfg.MaxBatch < 1 {
		cfg.MaxBatch = 1
	}
	s := &Scheduler{
		cfg:   cfg,
		exec:  exec,
		queue: make([]*Task, 0, cfg.QueueDepth),
		space: make(chan struct{}, 1),
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
// the task. A full queue rejects (PolicyReject) or blocks up to QueueWait
// (PolicyBlock); a closed scheduler returns ErrClosed.
func (s *Scheduler) Submit(t *Task) error {
	if t.done == nil {
		t.done = make(chan taskResult, 1)
	}
	var deadline *time.Timer
	for {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			s.rejected.Add(1)
			return ErrClosed
		}
		if len(s.queue) < s.cfg.QueueDepth && s.admitBytesLocked(t) {
			t.queuedAt = time.Now()
			s.queue = append(s.queue, t)
			s.queuedBytes += t.Bytes
			spare := len(s.queue) < s.cfg.QueueDepth &&
				(s.cfg.MaxQueueBytes <= 0 || s.queuedBytes < s.cfg.MaxQueueBytes)
			s.mu.Unlock()
			s.submitted.Add(1)
			signal(s.wake)
			if spare {
				// space has capacity 1: cascade the signal so other
				// blocked submitters see the remaining slots.
				signal(s.space)
			}
			return nil
		}
		s.mu.Unlock()
		if s.cfg.Policy == PolicyReject {
			s.rejected.Add(1)
			return ErrQueueFull
		}
		if deadline == nil {
			deadline = time.NewTimer(s.cfg.QueueWait)
			defer deadline.Stop()
		}
		select {
		case <-s.space:
		case <-deadline.C:
			s.rejected.Add(1)
			return fmt.Errorf("%w after %v", ErrQueueFull, s.cfg.QueueWait)
		case <-s.quit:
			s.rejected.Add(1)
			return ErrClosed
		}
	}
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

// worker pulls tasks, coalesces same-key backlog into batches, executes,
// and delivers results.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		batch, ok := s.nextBatch()
		if !ok {
			return
		}
		s.runBatch(batch)
	}
}

// nextBatch blocks for the next task, then greedily coalesces queued tasks
// sharing its BatchKey (holding the batch open up to BatchWindow when one
// is configured). ok=false means the scheduler is closing.
func (s *Scheduler) nextBatch() ([]*Task, bool) {
	var first *Task
	for {
		s.mu.Lock()
		if len(s.queue) > 0 {
			first = s.queue[0]
			// Clear the slot: the backing array outlives the pop, and a
			// finished task still pins its snapshot payload.
			s.queue[0] = nil
			s.queue = s.queue[1:]
			s.queuedBytes -= first.Bytes
			backlog := len(s.queue) > 0
			s.mu.Unlock()
			signal(s.space)
			if backlog {
				// wake has capacity 1: re-signal so sleeping sibling
				// workers see the remaining backlog.
				signal(s.wake)
			}
			break
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
	batch := []*Task{first}
	if s.cfg.MaxBatch <= 1 || first.BatchKey == "" {
		return batch, true
	}
	var window *time.Timer
	for len(batch) < s.cfg.MaxBatch {
		s.mu.Lock()
		// Coalesce every same-key task currently queued, preserving the
		// FIFO order of the rest.
		kept := s.queue[:0]
		for _, t := range s.queue {
			if len(batch) < s.cfg.MaxBatch && t.BatchKey == first.BatchKey {
				batch = append(batch, t)
				s.queuedBytes -= t.Bytes
			} else {
				kept = append(kept, t)
			}
		}
		for i := len(kept); i < len(s.queue); i++ {
			s.queue[i] = nil
		}
		s.queue = kept
		closed := s.closed
		s.mu.Unlock()
		signal(s.space)
		if len(batch) >= s.cfg.MaxBatch || s.cfg.BatchWindow <= 0 || closed {
			break
		}
		if window == nil {
			window = time.NewTimer(s.cfg.BatchWindow)
			defer window.Stop()
		}
		select {
		case <-s.wake:
			// New arrivals: loop to collect matching ones. Re-signal so
			// sibling workers also wake for the non-matching tasks.
			signal(s.wake)
		case <-window.C:
			return batch, true
		case <-s.quit:
			return batch, true
		}
	}
	return batch, true
}

// runBatch executes one batch and delivers per-task results.
func (s *Scheduler) runBatch(batch []*Task) {
	s.busy.Add(1)
	start := time.Now()
	for _, t := range batch {
		t.startedAt = start
		t.batchSize = len(batch)
		if !t.queuedAt.IsZero() {
			s.queueWait.Observe(start.Sub(t.queuedAt))
		}
	}
	results := s.safeExec(batch)
	dur := time.Since(start)
	s.busy.Add(-1)
	perTask := dur / time.Duration(len(batch))
	for _, t := range batch {
		t.execDur = dur
		s.service.Observe(perTask)
	}
	s.batches.Add(1)
	s.executed.Add(int64(len(batch)))
	if len(batch) > 1 {
		s.batchedTasks.Add(int64(len(batch)))
	}
	for i, t := range batch {
		if i < len(results) {
			t.finish(results[i].Value, results[i].Err)
		} else {
			t.finish(nil, errors.New("sched: executor returned too few results"))
		}
	}
}

// safeExec invokes the executor, converting a panic into per-task
// ErrExecutorPanic errors so one poisoned snapshot cannot take down the
// worker pool; the caller that waits on a task reports it.
func (s *Scheduler) safeExec(batch []*Task) (results []Result) {
	defer func() {
		if r := recover(); r != nil {
			results = make([]Result, len(batch))
			for i := range results {
				results[i] = Result{Err: fmt.Errorf("%w: %v", ErrExecutorPanic, r)}
			}
		}
	}()
	return s.exec(batch)
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
		Executed:     s.executed.Load(),
		Batches:      s.batches.Load(),
		BatchedTasks: s.batchedTasks.Load(),
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
