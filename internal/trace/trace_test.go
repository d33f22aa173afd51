package trace

import (
	"sync"
	"testing"
	"time"
)

func TestNewIDUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		id := NewID()
		if len(id) != 16 {
			t.Fatalf("NewID() = %q, want 16 hex chars", id)
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %q", id)
		}
		seen[id] = true
	}
}

func TestRecorderObserveAndSummaries(t *testing.T) {
	r := NewRecorder()
	r.Observe(StageCapture, time.Millisecond)
	r.Observe(StageExecute, 10*time.Millisecond)
	r.Observe(StageExecute, 20*time.Millisecond)
	r.Observe(Stage("nonsense"), time.Second) // dropped, not a panic

	sums := r.Summaries()
	if len(sums) != 2 {
		t.Fatalf("Summaries() has %d stages, want 2: %+v", len(sums), sums)
	}
	if sums[0].Stage != StageCapture || sums[1].Stage != StageExecute {
		t.Errorf("summaries out of pipeline order: %+v", sums)
	}
	if sums[1].Count != 2 {
		t.Errorf("execute count = %d, want 2", sums[1].Count)
	}
	if sums[1].Mean != 15*time.Millisecond {
		t.Errorf("execute mean = %v, want 15ms", sums[1].Mean)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				for _, s := range Stages() {
					r.Observe(s, time.Duration(i)*time.Microsecond)
				}
			}
		}()
	}
	wg.Wait()
	for _, s := range Stages() {
		if got := r.Stage(s).Count(); got != 2000 {
			t.Errorf("stage %s count = %d, want 2000", s, got)
		}
	}
}
