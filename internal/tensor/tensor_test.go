package tensor

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestNewShapes(t *testing.T) {
	tests := []struct {
		name    string
		shape   []int
		wantLen int
		wantErr bool
	}{
		{name: "scalar-ish", shape: []int{1}, wantLen: 1},
		{name: "vector", shape: []int{7}, wantLen: 7},
		{name: "chw", shape: []int{3, 4, 5}, wantLen: 60},
		{name: "zero dim", shape: []int{3, 0}, wantErr: true},
		{name: "negative dim", shape: []int{-1}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := New(tt.shape...)
			if tt.wantErr {
				if err == nil {
					t.Fatalf("New(%v) succeeded, want error", tt.shape)
				}
				return
			}
			if err != nil {
				t.Fatalf("New(%v): %v", tt.shape, err)
			}
			if got.Len() != tt.wantLen {
				t.Errorf("Len() = %d, want %d", got.Len(), tt.wantLen)
			}
		})
	}
}

func TestFromSlice(t *testing.T) {
	data := []float32{1, 2, 3, 4, 5, 6}
	tt, err := FromSlice(data, 2, 3)
	if err != nil {
		t.Fatalf("FromSlice: %v", err)
	}
	if got := tt.At(1, 2); got != 6 {
		t.Errorf("At(1,2) = %v, want 6", got)
	}
	if got := tt.At(0, 1); got != 2 {
		t.Errorf("At(0,1) = %v, want 2", got)
	}
	if _, err := FromSlice(data, 2, 2); !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("FromSlice with wrong volume: err = %v, want ErrShapeMismatch", err)
	}
}

func TestSetAtRowMajor(t *testing.T) {
	tt := MustNew(2, 3, 4)
	tt.Set(42, 1, 2, 3)
	if got := tt.Data()[1*12+2*4+3]; got != 42 {
		t.Errorf("row-major offset wrong: got %v, want 42", got)
	}
	if got := tt.At(1, 2, 3); got != 42 {
		t.Errorf("At after Set = %v, want 42", got)
	}
}

func TestCloneIsolation(t *testing.T) {
	a := MustNew(2, 2)
	a.Set(1, 0, 0)
	b := a.Clone()
	b.Set(9, 0, 0)
	if a.At(0, 0) != 1 {
		t.Error("mutating clone affected original")
	}
	if !SameShape(a, b) {
		t.Error("clone shape differs")
	}
}

func TestShapeCopyIsIsolated(t *testing.T) {
	a := MustNew(2, 3)
	s := a.Shape()
	s[0] = 99
	if a.Dim(0) != 2 {
		t.Error("Shape() must return a copy")
	}
}

func TestAdd(t *testing.T) {
	a, _ := FromSlice([]float32{1, 2}, 2)
	b, _ := FromSlice([]float32{10, 20}, 2)
	if err := a.Add(b); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if a.At(0) != 11 || a.At(1) != 22 {
		t.Errorf("Add result = %v", a.Data())
	}
	c := MustNew(3)
	if err := a.Add(c); !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("Add mismatched err = %v, want ErrShapeMismatch", err)
	}
}

func TestMaxIndex(t *testing.T) {
	a, _ := FromSlice([]float32{1, 5, 3, 5}, 4)
	idx, v := a.MaxIndex()
	if idx != 1 || v != 5 {
		t.Errorf("MaxIndex = (%d, %v), want (1, 5) (first max wins)", idx, v)
	}
	empty := &Tensor{}
	if idx, _ := empty.MaxIndex(); idx != -1 {
		t.Errorf("empty MaxIndex = %d, want -1", idx)
	}
}

func TestSumSquaredDiff(t *testing.T) {
	a, _ := FromSlice([]float32{1, 2}, 2)
	b, _ := FromSlice([]float32{3, 0}, 2)
	got, err := SumSquaredDiff(a, b)
	if err != nil {
		t.Fatalf("SumSquaredDiff: %v", err)
	}
	if math.Abs(got-8) > 1e-9 {
		t.Errorf("SumSquaredDiff = %v, want 8", got)
	}
	c := MustNew(3)
	if _, err := SumSquaredDiff(a, c); !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("mismatched err = %v, want ErrShapeMismatch", err)
	}
}

func TestVolume(t *testing.T) {
	if got := Volume([]int{2, 3, 4}); got != 24 {
		t.Errorf("Volume = %d, want 24", got)
	}
	if got := Volume(nil); got != 1 {
		t.Errorf("Volume(nil) = %d, want 1", got)
	}
}

// Property: adding a zero tensor is the identity, and SumSquaredDiff of a
// tensor with its clone is exactly zero.
func TestQuickAddZeroIdentity(t *testing.T) {
	f := func(raw []float32) bool {
		if len(raw) == 0 {
			return true
		}
		a, err := FromSlice(append([]float32(nil), raw...), len(raw))
		if err != nil {
			return false
		}
		orig := a.Clone()
		zero := MustNew(len(raw))
		if err := a.Add(zero); err != nil {
			return false
		}
		for i := range a.Data() {
			av, ov := a.Data()[i], orig.Data()[i]
			if av != ov && !(math.IsNaN(float64(av)) && math.IsNaN(float64(ov))) {
				return false
			}
		}
		d, err := SumSquaredDiff(orig, orig)
		return err == nil && d == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
