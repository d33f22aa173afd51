package sched

import (
	"errors"
	"testing"
)

// byteTask builds a task carrying an admission byte charge.
func byteTask(app string, payload any, bytes int64) *Task {
	task := NewTask(app, payload)
	task.Bytes = bytes
	return task
}

// TestByteCapAdmission pins the byte budget: admission stops at
// MaxQueueBytes even while queue slots remain, and Stats reports both
// dimensions.
func TestByteCapAdmission(t *testing.T) {
	block := make(chan struct{})
	exec := func(tasks []*Task) []Result {
		<-block
		return echoExec(tasks)
	}
	s, err := New(Config{Workers: 1, QueueDepth: 16, MaxQueueBytes: 100}, exec)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { close(block); s.Close() }()

	running := byteTask("", "running", 10)
	if err := s.Submit(running); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.Stats().Busy == 1 })

	if err := s.Submit(byteTask("", 1, 60)); err != nil {
		t.Fatalf("first queued submit: %v", err)
	}
	if err := s.Submit(byteTask("", 2, 40)); err != nil {
		t.Fatalf("submit filling the byte budget exactly: %v", err)
	}
	st := s.Stats()
	if st.QueueBytes != 100 || st.QueueByteCap != 100 {
		t.Fatalf("QueueBytes=%d QueueByteCap=%d, want 100/100", st.QueueBytes, st.QueueByteCap)
	}
	if !st.Saturated() {
		t.Error("byte-saturated queue should report Saturated despite free slots")
	}
	err = s.Submit(byteTask("", 3, 1))
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit over the byte budget: %v, want ErrQueueFull", err)
	}
	if got := s.Stats().Rejected; got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}
}

// TestByteCapOversizedTask pins the progress guarantee: a single task
// larger than the whole byte budget is admitted into an otherwise
// byte-empty queue — it could never run otherwise — but never alongside
// queued bytes.
func TestByteCapOversizedTask(t *testing.T) {
	block := make(chan struct{})
	exec := func(tasks []*Task) []Result {
		<-block
		return echoExec(tasks)
	}
	s, err := New(Config{Workers: 1, QueueDepth: 16, MaxQueueBytes: 50}, exec)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { close(block); s.Close() }()

	running := byteTask("", "running", 1)
	if err := s.Submit(running); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.Stats().Busy == 1 })

	if err := s.Submit(byteTask("", "huge", 500)); err != nil {
		t.Fatalf("oversized task into an empty queue: %v", err)
	}
	// With the oversized task queued, everything else bounces.
	if err := s.Submit(byteTask("", "tiny", 1)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit alongside oversized task: %v, want ErrQueueFull", err)
	}
}

// TestByteAccountingDrains pins that queued bytes return to zero once
// tasks execute, each task in its own executor call.
func TestByteAccountingDrains(t *testing.T) {
	release := make(chan struct{})
	exec := func(tasks []*Task) []Result {
		<-release
		return echoExec(tasks)
	}
	s, err := New(Config{Workers: 1, QueueDepth: 16, MaxQueueBytes: 1000}, exec)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// One running task, then three queued behind it.
	tasks := []*Task{byteTask("app", 0, 100)}
	if err := s.Submit(tasks[0]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.Stats().Busy == 1 })
	for i := 1; i <= 3; i++ {
		task := byteTask("app", i, 100)
		tasks = append(tasks, task)
		if err := s.Submit(task); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().QueueBytes; got != 300 {
		t.Fatalf("QueueBytes = %d with 3 queued tasks, want 300", got)
	}
	close(release)
	for _, task := range tasks {
		if _, err := task.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return s.Stats().QueueBytes == 0 })
	st := s.Stats()
	if st.Executed != 4 {
		t.Fatalf("executed = %d, want 4", st.Executed)
	}
	if st.Batches != st.Executed {
		t.Fatalf("batches = %d, want one executor call per task (%d)", st.Batches, st.Executed)
	}
}
