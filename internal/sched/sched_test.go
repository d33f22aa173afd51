package sched

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"websnap/internal/testutil"
	"websnap/internal/trace"
)

// echoExec returns each task's payload as its result.
func echoExec(tasks []*Task) []Result {
	out := make([]Result, len(tasks))
	for i, t := range tasks {
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

// TestRejectWhenFull: a full queue turns tasks away immediately with
// ErrQueueFull.
func TestRejectWhenFull(t *testing.T) {
	block := make(chan struct{})
	exec := func(tasks []*Task) []Result {
		<-block
		return echoExec(tasks)
	}
	s, err := New(Config{Workers: 1, QueueDepth: 2}, exec)
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

// TestCloseCancelsQueuedAndDrainsRunning: Close finishes every accepted
// task — in-flight ones execute, queued ones fail with ErrClosed.
func TestCloseCancelsQueuedAndDrainsRunning(t *testing.T) {
	testutil.LeakCheck(t)
	started := make(chan struct{})
	release := make(chan struct{})
	exec := func(tasks []*Task) []Result {
		close(started)
		<-release
		return echoExec(tasks)
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
	if st.Rejected != 1 || st.QueueDepth != 0 {
		t.Errorf("rejected = %d, queue depth = %d; want the post-close submit rejected and an empty queue", st.Rejected, st.QueueDepth)
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
	exec := func(tasks []*Task) []Result {
		once.Do(func() {
			close(started)
			<-release
		})
		return echoExec(tasks)
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
	slots := s.q.tasks[:len(s.q.tasks):len(s.q.tasks)]
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

// TestExecutorPanicIsContained: a panicking executor fails its task but
// the pool keeps serving.
func TestExecutorPanicIsContained(t *testing.T) {
	exec := func(tasks []*Task) []Result {
		if tasks[0].Payload == "boom" {
			panic("kaboom")
		}
		return echoExec(tasks)
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
		t.Errorf("panicking task returned %v, want ErrExecutorPanic carrying the panic value", err)
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
	exec := func(tasks []*Task) []Result {
		time.Sleep(5 * time.Millisecond)
		return echoExec(tasks)
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
	if task.QueueWait() < 0 {
		t.Errorf("task QueueWait = %v, want >= 0", task.QueueWait())
	}
	qd := Stats{Workers: 2, QueueDepth: 4,
		Service: trace.Quantiles{Mean: 100 * time.Millisecond}}.QueueingDelay()
	if qd != 200*time.Millisecond {
		t.Errorf("QueueingDelay = %v, want 200ms (4 waiting / 2 workers * 100ms)", qd)
	}
}

// TestConcurrentSubmitters: many goroutines hammering a small queue get
// either admission or ErrQueueFull, never a hang; no submission is lost and
// every accepted task completes exactly once (run with -race).
func TestConcurrentSubmitters(t *testing.T) {
	testutil.LeakCheck(t)
	const clients, perClient = 8, 25
	var runs [clients * perClient]atomic.Int64
	exec := func(tasks []*Task) []Result {
		for _, task := range tasks {
			runs[task.Payload.(int)].Add(1)
		}
		return echoExec(tasks)
	}
	s, err := New(Config{Workers: 2, QueueDepth: 4}, exec)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var accepted, rejected atomic.Int64
	admitted := make([]bool, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var mine []*Task
			for i := 0; i < perClient; i++ {
				id := c*perClient + i
				task := NewTask("", id)
				switch err := s.Submit(task); {
				case errors.Is(err, ErrQueueFull):
					rejected.Add(1)
					continue
				case err != nil:
					t.Errorf("task %d submit: %v", id, err)
					continue
				}
				accepted.Add(1)
				admitted[id] = true
				mine = append(mine, task)
			}
			for _, task := range mine {
				if v, err := task.Wait(); err != nil {
					t.Errorf("task %v: %v", v, err)
				}
			}
		}(c)
	}
	wg.Wait()
	s.Close()
	t.Logf("%d accepted, %d rejected", accepted.Load(), rejected.Load())
	if got := accepted.Load() + rejected.Load(); got != clients*perClient {
		t.Errorf("accepted %d + rejected %d = %d, want %d submitted",
			accepted.Load(), rejected.Load(), got, clients*perClient)
	}
	for id := range runs {
		want := int64(0)
		if admitted[id] {
			want = 1
		}
		if got := runs[id].Load(); got != want {
			t.Errorf("task %d ran %d times, want %d", id, got, want)
		}
	}
	st := s.Stats()
	if st.Executed != accepted.Load() || st.Submitted != accepted.Load() || st.Rejected != rejected.Load() {
		t.Errorf("stats = %d executed, %d submitted, %d rejected; want %d, %d, %d",
			st.Executed, st.Submitted, st.Rejected, accepted.Load(), accepted.Load(), rejected.Load())
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
