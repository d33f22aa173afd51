package sched

import (
	"errors"
	"testing"
	"time"
)

// byteTask builds a task carrying an admission byte charge.
func byteTask(app string, payload any, bytes int64) *Task {
	task := NewTask(app, payload)
	task.Bytes = bytes
	return task
}

// t0 is the start of the explicit clock the Queue tests step through.
var t0 = time.Unix(0, 0)

// admitStart admits task at now and starts it on a worker, failing the test
// unless the queue hands back that very task.
func admitStart(t *testing.T, q *Queue, task *Task, now time.Time) {
	t.Helper()
	if err := q.Admit(task, now); err != nil {
		t.Fatal(err)
	}
	if got := q.Start(now); got != task {
		t.Fatalf("Start = %v, want the task just admitted", got)
	}
}

// TestByteCapAdmission pins the byte budget: admission stops at
// MaxQueueBytes even while queue slots remain, and Stats reports both
// dimensions.
func TestByteCapAdmission(t *testing.T) {
	q := NewQueue(Config{Workers: 1, QueueDepth: 16, MaxQueueBytes: 100})
	admitStart(t, q, byteTask("", "running", 10), t0)
	if got := q.Stats().Busy; got != 1 {
		t.Fatalf("busy = %d, want 1", got)
	}

	if err := q.Admit(byteTask("", 1, 60), t0); err != nil {
		t.Fatalf("first queued submit: %v", err)
	}
	if err := q.Admit(byteTask("", 2, 40), t0); err != nil {
		t.Fatalf("submit filling the byte budget exactly: %v", err)
	}
	st := q.Stats()
	if st.QueueBytes != 100 || st.QueueByteCap != 100 {
		t.Fatalf("QueueBytes=%d QueueByteCap=%d, want 100/100", st.QueueBytes, st.QueueByteCap)
	}
	if !st.Saturated() {
		t.Error("byte-saturated queue should report Saturated despite free slots")
	}
	err := q.Admit(byteTask("", 3, 1), t0)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit over the byte budget: %v, want ErrQueueFull", err)
	}
	if got := q.Stats().Rejected; got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}
}

// TestByteCapOversizedTask pins the progress guarantee: a single task
// larger than the whole byte budget is admitted into an otherwise
// byte-empty queue — it could never run otherwise — but never alongside
// queued bytes.
func TestByteCapOversizedTask(t *testing.T) {
	q := NewQueue(Config{Workers: 1, QueueDepth: 16, MaxQueueBytes: 50})
	admitStart(t, q, byteTask("", "running", 1), t0)

	if err := q.Admit(byteTask("", "huge", 500), t0); err != nil {
		t.Fatalf("oversized task into an empty queue: %v", err)
	}
	// With the oversized task queued, everything else bounces.
	if err := q.Admit(byteTask("", "tiny", 1), t0); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit alongside oversized task: %v, want ErrQueueFull", err)
	}
}

// TestByteAccountingDrains pins that queued bytes return to zero once
// tasks execute, each task in its own worker turn, oldest first.
func TestByteAccountingDrains(t *testing.T) {
	q := NewQueue(Config{Workers: 1, QueueDepth: 16, MaxQueueBytes: 1000})

	// One running task, then three queued behind it.
	tasks := []*Task{byteTask("app", 0, 100)}
	admitStart(t, q, tasks[0], t0)
	for i := 1; i <= 3; i++ {
		task := byteTask("app", i, 100)
		tasks = append(tasks, task)
		if err := q.Admit(task, t0); err != nil {
			t.Fatal(err)
		}
	}
	if got := q.Stats().QueueBytes; got != 300 {
		t.Fatalf("QueueBytes = %d with 3 queued tasks, want 300", got)
	}
	if got := q.Start(t0); got != nil {
		t.Fatalf("Start with the only worker busy = %v, want nil", got)
	}
	now := t0
	for i, task := range tasks {
		now = now.Add(time.Millisecond)
		q.Finish(task, now)
		next := q.Start(now)
		if i+1 < len(tasks) && next != tasks[i+1] {
			t.Fatalf("after task %d finished, Start = %v, want task %d", i, next, i+1)
		}
	}
	if got := q.Stats().QueueBytes; got != 0 {
		t.Fatalf("QueueBytes = %d once drained, want 0", got)
	}
	st := q.Stats()
	if st.Executed != 4 {
		t.Fatalf("executed = %d, want 4", st.Executed)
	}
	if st.Batches != st.Executed {
		t.Fatalf("batches = %d, want one executor call per task (%d)", st.Batches, st.Executed)
	}
}

// TestQueueHintAtColdStart pins what a server advertises before it has
// finished anything: every worker busy and a task waiting, yet no service
// mean, so the queueing estimate reads 0. After the first Finish the mean
// is that task's service time exactly, and the estimate follows from it.
func TestQueueHintAtColdStart(t *testing.T) {
	q := NewQueue(Config{Workers: 2, QueueDepth: 4})
	first, second, waiting := NewTask("", 1), NewTask("", 2), NewTask("", 3)
	admitStart(t, q, first, t0)
	admitStart(t, q, second, t0)
	if err := q.Admit(waiting, t0); err != nil {
		t.Fatal(err)
	}
	h := q.Stats().Hint()
	if h.Busy != 2 || h.QueueDepth != 1 {
		t.Fatalf("hint = %+v, want 2 busy and 1 queued", h)
	}
	if h.QueueingMillis != 0 || h.EWMAServiceMillis != 0 {
		t.Errorf("cold hint: QueueingMillis=%v EWMAServiceMillis=%v, want 0 and 0", h.QueueingMillis, h.EWMAServiceMillis)
	}

	now := t0.Add(10 * time.Millisecond)
	q.Finish(first, now)
	if got := q.Start(now); got != waiting {
		t.Fatalf("Start = %v, want the waiting task", got)
	}
	if got := waiting.QueueWait(); got != 10*time.Millisecond {
		t.Errorf("QueueWait = %v, want 10ms", got)
	}
	h = q.Stats().Hint()
	if h.EWMAServiceMillis != 10 {
		t.Errorf("EWMAServiceMillis = %v after one 10ms task, want 10", h.EWMAServiceMillis)
	}
	// Nothing queued and both workers busy: a new task waits for half the
	// in-flight work, (2/2 tasks × 10ms) / 2 workers.
	if h.QueueingMillis != 5 {
		t.Errorf("QueueingMillis = %v, want 5", h.QueueingMillis)
	}
}
