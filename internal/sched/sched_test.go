package sched

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"websnap/internal/testutil"
	"websnap/internal/trace"
)

// echoExec returns each task's payload as its result.
func echoExec(batch []*Task) []Result {
	out := make([]Result, len(batch))
	for i, t := range batch {
		out[i] = Result{Value: t.Payload}
	}
	return out
}

// TestSubmitExecutes: a submitted task runs and returns its result.
func TestSubmitExecutes(t *testing.T) {
	s, err := New(Config{Workers: 2}, echoExec)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	task := NewTask("", 42)
	if err := s.Submit(task); err != nil {
		t.Fatal(err)
	}
	v, err := task.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if v != 42 {
		t.Errorf("result = %v, want 42", v)
	}
	st := s.Stats()
	if st.Executed != 1 || st.Submitted != 1 {
		t.Errorf("stats = %+v, want 1 submitted, 1 executed", st)
	}
}

// TestRejectWhenFull: with PolicyReject, a full queue turns tasks away
// immediately with ErrQueueFull.
func TestRejectWhenFull(t *testing.T) {
	block := make(chan struct{})
	exec := func(batch []*Task) []Result {
		<-block
		return echoExec(batch)
	}
	s, err := New(Config{Workers: 1, QueueDepth: 2, Policy: PolicyReject}, exec)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { close(block); s.Close() }()

	// One task occupies the worker; wait until it is actually in-flight
	// so the queue accounting below is deterministic.
	running := NewTask("", "running")
	if err := s.Submit(running); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.Stats().Busy == 1 })

	// Two more fill the queue.
	for i := 0; i < 2; i++ {
		if err := s.Submit(NewTask("", i)); err != nil {
			t.Fatalf("queued submit %d: %v", i, err)
		}
	}
	if !s.Stats().Saturated() {
		t.Error("stats should report saturation with a full queue")
	}
	err = s.Submit(NewTask("", "overflow"))
	if !errors.Is(err, ErrQueueFull) {
		t.Errorf("overflow submit err = %v, want ErrQueueFull", err)
	}
	if got := s.Stats().Rejected; got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}
}

// TestBlockPolicyWaitsForSpace: PolicyBlock submissions wait for a slot and
// succeed when one frees up within QueueWait.
func TestBlockPolicyWaitsForSpace(t *testing.T) {
	release := make(chan struct{})
	exec := func(batch []*Task) []Result {
		<-release
		return echoExec(batch)
	}
	s, err := New(Config{Workers: 1, QueueDepth: 1, Policy: PolicyBlock, QueueWait: 5 * time.Second}, exec)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Submit(NewTask("", "running")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.Stats().Busy == 1 })
	if err := s.Submit(NewTask("", "queued")); err != nil {
		t.Fatal(err)
	}
	// Queue now full: this submit must block until release frees the
	// worker, which drains the queue.
	done := make(chan error, 1)
	go func() { done <- s.Submit(NewTask("", "blocked")) }()
	select {
	case err := <-done:
		t.Fatalf("submit returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("blocked submit: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked submit never admitted")
	}
}

// TestBlockPolicyDeadline: PolicyBlock gives up with ErrQueueFull when no
// slot frees within QueueWait.
func TestBlockPolicyDeadline(t *testing.T) {
	block := make(chan struct{})
	exec := func(batch []*Task) []Result {
		<-block
		return echoExec(batch)
	}
	s, err := New(Config{Workers: 1, QueueDepth: 1, Policy: PolicyBlock, QueueWait: 30 * time.Millisecond}, exec)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { close(block); s.Close() }()
	if err := s.Submit(NewTask("", "running")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.Stats().Busy == 1 })
	if err := s.Submit(NewTask("", "queued")); err != nil {
		t.Fatal(err)
	}
	err = s.Submit(NewTask("", "timed-out"))
	if !errors.Is(err, ErrQueueFull) {
		t.Errorf("err = %v, want ErrQueueFull after deadline", err)
	}
}

// TestBatchingCoalesces: queued tasks sharing a BatchKey reach the executor
// as one batch; different keys never mix.
func TestBatchingCoalesces(t *testing.T) {
	block := make(chan struct{})
	var mu sync.Mutex
	var batches [][]string
	exec := func(batch []*Task) []Result {
		if len(batch) == 1 && batch[0].Payload == "plug" {
			<-block
			return echoExec(batch)
		}
		keys := make([]string, len(batch))
		for i, t := range batch {
			keys[i] = t.BatchKey
		}
		mu.Lock()
		batches = append(batches, keys)
		mu.Unlock()
		return echoExec(batch)
	}
	s, err := New(Config{Workers: 1, QueueDepth: 16, MaxBatch: 4}, exec)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Plug the single worker so a backlog builds.
	if err := s.Submit(NewTask("", "plug")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.Stats().Busy == 1 })
	var tasks []*Task
	for _, key := range []string{"m1", "m1", "m2", "m1", "m1"} {
		task := NewTask(key, key)
		tasks = append(tasks, task)
		if err := s.Submit(task); err != nil {
			t.Fatal(err)
		}
	}
	close(block)
	for _, task := range tasks {
		if _, err := task.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	var m1Batches, mixed int
	for _, keys := range batches {
		same := true
		for _, k := range keys {
			if k != keys[0] {
				same = false
			}
		}
		if !same {
			mixed++
		}
		if keys[0] == "m1" && len(keys) > 1 {
			m1Batches++
		}
	}
	if mixed != 0 {
		t.Errorf("executor saw %d mixed-key batches: %v", mixed, batches)
	}
	if m1Batches == 0 {
		t.Errorf("no multi-task m1 batch formed: %v", batches)
	}
	if got := s.Stats().BatchedTasks; got == 0 {
		t.Error("stats report no batched tasks")
	}
}

// TestBatchWindowCollectsArrivals: with a batch window, a worker holds an
// under-filled batch open and coalesces tasks that arrive within it.
func TestBatchWindowCollectsArrivals(t *testing.T) {
	sizes := make(chan int, 8)
	exec := func(batch []*Task) []Result {
		sizes <- len(batch)
		return echoExec(batch)
	}
	s, err := New(Config{Workers: 1, QueueDepth: 16, MaxBatch: 2, BatchWindow: time.Second}, exec)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	a, b := NewTask("k", 1), NewTask("k", 2)
	if err := s.Submit(a); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // worker now holds the window open for a
	if err := s.Submit(b); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := <-sizes; got != 2 {
		t.Errorf("batch size = %d, want 2 (window should coalesce the late arrival)", got)
	}
}

// TestCloseCancelsQueuedAndDrainsRunning: Close finishes every accepted
// task — in-flight ones execute, queued ones fail with ErrClosed.
func TestCloseCancelsQueuedAndDrainsRunning(t *testing.T) {
	testutil.LeakCheck(t)
	started := make(chan struct{})
	release := make(chan struct{})
	exec := func(batch []*Task) []Result {
		close(started)
		<-release
		return echoExec(batch)
	}
	s, err := New(Config{Workers: 1, QueueDepth: 8}, exec)
	if err != nil {
		t.Fatal(err)
	}
	running := NewTask("", "running")
	if err := s.Submit(running); err != nil {
		t.Fatal(err)
	}
	<-started
	queued := NewTask("", "queued")
	if err := s.Submit(queued); err != nil {
		t.Fatal(err)
	}
	closeDone := make(chan struct{})
	go func() { s.Close(); close(closeDone) }()
	// The queued task must be cancelled promptly even while the running
	// one is still executing.
	if _, err := queued.Wait(); !errors.Is(err, ErrClosed) {
		t.Errorf("queued task err = %v, want ErrClosed", err)
	}
	select {
	case <-closeDone:
		t.Fatal("Close returned before in-flight task drained")
	case <-time.After(30 * time.Millisecond):
	}
	close(release)
	if v, err := running.Wait(); err != nil || v != "running" {
		t.Errorf("running task = (%v, %v), want drained result", v, err)
	}
	<-closeDone
	if err := s.Submit(NewTask("", "late")); !errors.Is(err, ErrClosed) {
		t.Errorf("post-close submit err = %v, want ErrClosed", err)
	}
	st := s.Stats()
	if st.Cancelled != 1 {
		t.Errorf("cancelled = %d, want 1", st.Cancelled)
	}
}

// TestDrainedQueueReleasesTasks is the regression test for the pop that
// re-sliced the queue without clearing the slot: once every queued task has
// run, the queue's backing array must hold no task pointers, or up to
// QueueDepth finished tasks' payloads stay reachable.
func TestDrainedQueueReleasesTasks(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	exec := func(batch []*Task) []Result {
		once.Do(func() {
			close(started)
			<-release
		})
		return echoExec(batch)
	}
	s, err := New(Config{Workers: 1, QueueDepth: 8}, exec)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	gate := NewTask("", "gate")
	if err := s.Submit(gate); err != nil {
		t.Fatal(err)
	}
	<-started // the worker holds the gate task; everything else queues
	queued := make([]*Task, 6)
	for i := range queued {
		queued[i] = NewTask("", i)
		if err := s.Submit(queued[i]); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	slots := s.queue[:len(s.queue):len(s.queue)]
	s.mu.Unlock()
	if len(slots) != len(queued) {
		t.Fatalf("%d tasks queued, want %d", len(slots), len(queued))
	}
	close(release)
	for _, q := range append(queued, gate) {
		if _, err := q.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, slot := range slots {
		if slot != nil {
			t.Errorf("queue slot %d still points at a finished task", i)
		}
	}
}

// TestExecutorPanicIsContained: a panicking executor fails its batch but
// the pool keeps serving.
func TestExecutorPanicIsContained(t *testing.T) {
	exec := func(batch []*Task) []Result {
		if batch[0].Payload == "boom" {
			panic("kaboom")
		}
		return echoExec(batch)
	}
	s, err := New(Config{Workers: 1}, exec)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	bad := NewTask("", "boom")
	if err := s.Submit(bad); err != nil {
		t.Fatal(err)
	}
	if _, err := bad.Wait(); !errors.Is(err, ErrExecutorPanic) || !strings.Contains(err.Error(), "kaboom") {
		t.Errorf("panicking batch returned %v, want ErrExecutorPanic carrying the panic value", err)
	}
	good := NewTask("", "fine")
	if err := s.Submit(good); err != nil {
		t.Fatal(err)
	}
	if v, err := good.Wait(); err != nil || v != "fine" {
		t.Errorf("post-panic task = (%v, %v), want it served", v, err)
	}
}

// TestServiceHistogramTracksExecution: the histogram-derived service time
// is non-zero after work, per-task timing is published on the Task, and the
// mean feeds a plausible queueing estimate.
func TestServiceHistogramTracksExecution(t *testing.T) {
	exec := func(batch []*Task) []Result {
		time.Sleep(5 * time.Millisecond)
		return echoExec(batch)
	}
	s, err := New(Config{Workers: 1}, exec)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	task := NewTask("", 1)
	if err := s.Submit(task); err != nil {
		t.Fatal(err)
	}
	if _, err := task.Wait(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Service.Mean < time.Millisecond {
		t.Errorf("Service.Mean = %v, want >= 1ms after a 5ms execution", st.Service.Mean)
	}
	if st.Service.Count != 1 || st.Service.P99 < time.Millisecond {
		t.Errorf("Service summary = %+v, want count 1 and p99 >= 1ms", st.Service)
	}
	if st.QueueWait.Count != 1 {
		t.Errorf("QueueWait.Count = %d, want 1", st.QueueWait.Count)
	}
	if task.ExecTime() < time.Millisecond {
		t.Errorf("task ExecTime = %v, want >= 1ms", task.ExecTime())
	}
	if task.BatchSize() != 1 {
		t.Errorf("task BatchSize = %d, want 1", task.BatchSize())
	}
	if task.QueueWait() < 0 {
		t.Errorf("task QueueWait = %v, want >= 0", task.QueueWait())
	}
	qd := Stats{Workers: 2, QueueDepth: 4,
		Service: trace.Quantiles{Mean: 100 * time.Millisecond}}.QueueingDelay()
	if qd != 200*time.Millisecond {
		t.Errorf("QueueingDelay = %v, want 200ms (4 waiting / 2 workers * 100ms)", qd)
	}
}

// TestConcurrentSubmitters: many goroutines hammering Submit lose no tasks
// and every accepted task completes exactly once (run with -race).
func TestConcurrentSubmitters(t *testing.T) {
	testutil.LeakCheck(t)
	var executed atomic.Int64
	exec := func(batch []*Task) []Result {
		executed.Add(int64(len(batch)))
		return echoExec(batch)
	}
	s, err := New(Config{Workers: 4, QueueDepth: 32, Policy: PolicyBlock, QueueWait: 10 * time.Second, MaxBatch: 4}, exec)
	if err != nil {
		t.Fatal(err)
	}
	const clients, perClient = 8, 25
	var wg sync.WaitGroup
	var accepted atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				task := NewTask(fmt.Sprintf("key-%d", i%3), i)
				if err := s.Submit(task); err != nil {
					t.Errorf("client %d submit %d: %v", c, i, err)
					return
				}
				accepted.Add(1)
				if v, err := task.Wait(); err != nil || v != i {
					t.Errorf("client %d task %d = (%v, %v)", c, i, v, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	s.Close()
	if got := executed.Load(); got != accepted.Load() {
		t.Errorf("executed %d tasks, accepted %d", got, accepted.Load())
	}
	st := s.Stats()
	if st.Executed != accepted.Load() {
		t.Errorf("stats.Executed = %d, want %d", st.Executed, accepted.Load())
	}
}

// waitFor polls cond until true or the deadline expires.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}
