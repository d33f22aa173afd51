// Package webapp is the browser substrate the snapshot mechanism operates
// on: a deterministic web-app runtime with a DOM tree, JavaScript-like heap
// values, event targets and dispatch, and a single-threaded event loop.
//
// It stands in for the paper's WebKit browser (DESIGN.md §1). App *state*
// (globals, heap objects, DOM, pending events) is fully serializable by
// package snapshot; app *code* is a bundle of registered handler functions
// identified by a content hash, mirroring the paper's snapshots, which carry
// the app's functions as JavaScript text.
package webapp

import (
	"fmt"
	"math"
	"sort"
)

// Value is a JavaScript-like heap value. The dynamic type must be one of:
//
//	nil, bool, float64, string, []Value, map[string]Value, Float32Array
//
// (the JSON value universe plus typed arrays, which ML web apps use for
// image pixels and DNN feature data).
type Value = any

// Float32Array is the typed-array value used for pixel and feature data,
// mirroring JavaScript's Float32Array. It serializes textually in
// snapshots, which is what gives feature data its large on-the-wire size
// (paper §IV.B: 14.7 MB at 1st_conv vs 2.9 MB at 1st_pool for GoogLeNet).
type Float32Array []float32

// Normalize converts v into canonical Value form (e.g. int -> float64,
// []float32 -> Float32Array, map[string]string -> map[string]Value). It
// returns an error for types outside the value universe.
func Normalize(v Value) (Value, error) {
	switch t := v.(type) {
	case nil, bool, float64, string, Float32Array:
		return t, nil
	case int:
		return float64(t), nil
	case int64:
		return float64(t), nil
	case float32:
		return float64(t), nil
	case []float32:
		return Float32Array(t), nil
	case []Value:
		out := make([]Value, len(t))
		for i, e := range t {
			n, err := Normalize(e)
			if err != nil {
				return nil, err
			}
			out[i] = n
		}
		return out, nil
	case map[string]Value:
		out := make(map[string]Value, len(t))
		for k, e := range t {
			n, err := Normalize(e)
			if err != nil {
				return nil, err
			}
			out[k] = n
		}
		return out, nil
	default:
		return nil, fmt.Errorf("webapp: unsupported value type %T", v)
	}
}

// Identical compares two canonical Values structurally, as state that must
// survive a snapshot: floats compare by bit pattern, so −0 is not +0 — the
// snapshot text keeps the sign — and a NaN equals only itself.
func Identical(a, b Value) bool {
	switch x := a.(type) {
	case nil:
		return b == nil
	case bool:
		y, ok := b.(bool)
		return ok && x == y
	case float64:
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	case string:
		y, ok := b.(string)
		return ok && x == y
	case Float32Array:
		y, ok := b.(Float32Array)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float32bits(x[i]) != math.Float32bits(y[i]) {
				return false
			}
		}
		return true
	case []Value:
		y, ok := b.([]Value)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !Identical(x[i], y[i]) {
				return false
			}
		}
		return true
	case map[string]Value:
		y, ok := b.(map[string]Value)
		if !ok || len(x) != len(y) {
			return false
		}
		for k, v := range x {
			w, exists := y[k]
			if !exists || !Identical(v, w) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// DeepCopy clones a canonical Value so that captured state cannot alias
// live app state.
func DeepCopy(v Value) Value {
	switch t := v.(type) {
	case []Value:
		out := make([]Value, len(t))
		for i, e := range t {
			out[i] = DeepCopy(e)
		}
		return out
	case map[string]Value:
		out := make(map[string]Value, len(t))
		for k, e := range t {
			out[k] = DeepCopy(e)
		}
		return out
	case Float32Array:
		out := make(Float32Array, len(t))
		copy(out, t)
		return out
	default:
		return t
	}
}

// sortedKeys returns map keys in deterministic order; snapshot encoding and
// code hashing both rely on stable iteration.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
