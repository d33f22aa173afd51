package trace

import "testing"

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
