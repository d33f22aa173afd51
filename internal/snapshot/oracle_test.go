package snapshot

import (
	"encoding/json"
	"fmt"

	"websnap/internal/webapp"
)

// The reflection-driven value path the codec in value.go replaced, kept as
// the differential oracle: encodeValue/decodeValue define the wire text and
// the accept/reject set the hand-written encoder and parser must match.

func encodeValue(v webapp.Value) (string, error) {
	data, err := json.Marshal(toWire(v))
	if err != nil {
		return "", err
	}
	return string(data), nil
}

func decodeValue(body string) (webapp.Value, error) {
	var raw any
	if err := json.Unmarshal([]byte(body), &raw); err != nil {
		return nil, err
	}
	return fromWire(raw)
}

// toWire maps the canonical value tree to a json.Marshal-able tree.
func toWire(v webapp.Value) any {
	switch t := v.(type) {
	case webapp.Float32Array:
		return map[string]any{f32Key: []float32(t)}
	case []webapp.Value:
		out := make([]any, len(t))
		for i, e := range t {
			out[i] = toWire(e)
		}
		return out
	case map[string]webapp.Value:
		out := make(map[string]any, len(t))
		for k, e := range t {
			out[k] = toWire(e)
		}
		return out
	default:
		return t
	}
}

// fromWire maps a json.Unmarshal-ed tree back to canonical value form.
func fromWire(v any) (webapp.Value, error) {
	switch t := v.(type) {
	case nil, bool, float64, string:
		return t, nil
	case []any:
		out := make([]webapp.Value, len(t))
		for i, e := range t {
			n, err := fromWire(e)
			if err != nil {
				return nil, err
			}
			out[i] = n
		}
		return out, nil
	case map[string]any:
		if raw, ok := t[f32Key]; ok && len(t) == 1 {
			arr, ok := raw.([]any)
			if !ok {
				return nil, fmt.Errorf("%s marker is not an array", f32Key)
			}
			fa := make(webapp.Float32Array, len(arr))
			for i, e := range arr {
				f, ok := e.(float64)
				if !ok {
					return nil, fmt.Errorf("%s element %d is not a number", f32Key, i)
				}
				fa[i] = float32(f)
			}
			return fa, nil
		}
		out := make(map[string]webapp.Value, len(t))
		for k, e := range t {
			n, err := fromWire(e)
			if err != nil {
				return nil, err
			}
			out[k] = n
		}
		return out, nil
	default:
		return nil, fmt.Errorf("unsupported wire type %T", v)
	}
}
