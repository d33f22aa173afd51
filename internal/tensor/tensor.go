// Package tensor provides N-dimensional float32 tensors used by the neural
// network engine. Tensors are dense, row-major, and deliberately simple: the
// goal is a faithful, dependency-free substrate for CNN forward execution,
// not a general autograd system.
package tensor

import (
	"errors"
	"fmt"
)

// ErrShapeMismatch is returned when an operation receives tensors whose
// shapes are incompatible.
var ErrShapeMismatch = errors.New("tensor: shape mismatch")

// Tensor is a dense, row-major N-dimensional array of float32.
//
// The zero value is an empty tensor with no dimensions and no data.
type Tensor struct {
	shape []int
	data  []float32
}

// New returns a zero-filled tensor with the given shape. A dimension of zero
// or below is invalid and yields an error.
func New(shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			return nil, fmt.Errorf("tensor: invalid dimension %d in shape %v", d, shape)
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: make([]float32, n)}, nil
}

// MustNew is New but panics on invalid shape. It is intended for package
// initialization and tests where the shape is a compile-time constant.
func MustNew(shape ...int) *Tensor {
	t, err := New(shape...)
	if err != nil {
		panic(err)
	}
	return t
}

// FromSlice wraps data in a tensor with the given shape. The data slice is
// used directly (not copied); len(data) must equal the shape's volume.
func FromSlice(data []float32, shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			return nil, fmt.Errorf("tensor: invalid dimension %d in shape %v", d, shape)
		}
		n *= d
	}
	if len(data) != n {
		return nil, fmt.Errorf("tensor: data length %d does not match shape %v (volume %d): %w",
			len(data), shape, n, ErrShapeMismatch)
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: data}, nil
}

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() []int {
	s := make([]int, len(t.shape))
	copy(s, t.shape)
	return s
}

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the underlying storage. Mutating the returned slice mutates
// the tensor; callers that need isolation should Clone first.
func (t *Tensor) Data() []float32 { return t.data }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	d := make([]float32, len(t.data))
	copy(d, t.data)
	s := make([]int, len(t.shape))
	copy(s, t.shape)
	return &Tensor{shape: s, data: d}
}

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float32 {
	return t.data[t.offset(idx)]
}

// Set assigns the element at the given multi-dimensional index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d != tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// SameShape reports whether a and b have identical shapes.
func SameShape(a, b *Tensor) bool {
	if a.Rank() != b.Rank() {
		return false
	}
	for i := range a.shape {
		if a.shape[i] != b.shape[i] {
			return false
		}
	}
	return true
}

// Volume returns the product of the dimensions of shape.
func Volume(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

// Add accumulates src into t elementwise.
func (t *Tensor) Add(src *Tensor) error {
	if !SameShape(t, src) {
		return fmt.Errorf("tensor: add %v to %v: %w", src.shape, t.shape, ErrShapeMismatch)
	}
	for i, v := range src.data {
		t.data[i] += v
	}
	return nil
}

// MaxIndex returns the index of the maximum element and its value. For an
// empty tensor it returns (-1, 0).
func (t *Tensor) MaxIndex() (int, float32) {
	if len(t.data) == 0 {
		return -1, 0
	}
	best, bv := 0, t.data[0]
	for i, v := range t.data[1:] {
		if v > bv {
			best, bv = i+1, v
		}
	}
	return best, bv
}

// SumSquaredDiff returns the sum of squared differences between a and b.
func SumSquaredDiff(a, b *Tensor) (float64, error) {
	if !SameShape(a, b) {
		return 0, fmt.Errorf("tensor: diff %v vs %v: %w", a.shape, b.shape, ErrShapeMismatch)
	}
	var s float64
	for i := range a.data {
		d := float64(a.data[i] - b.data[i])
		s += d * d
	}
	return s, nil
}

// String renders a compact description (shape only, to keep logs readable).
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v", t.shape)
}
