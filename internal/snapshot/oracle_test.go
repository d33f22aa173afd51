package snapshot

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"websnap/internal/webapp"
)

// The reflection-driven value path the codec in value.go replaced, kept as
// the differential oracle: encodeValue/decodeValue define the wire text and
// the accept/reject set the hand-written encoder and parser must match.

func encodeValue(v webapp.Value) (string, error) {
	w, err := toWire(v)
	if err != nil {
		return "", err
	}
	data, err := json.Marshal(w)
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

// toWire maps the canonical value tree to a json.Marshal-able tree. A typed
// array becomes the []byte of its bits, which encoding/json renders as
// StdEncoding base64; json has no objection to a NaN's bits, so the oracle
// states the finiteness rule itself.
func toWire(v webapp.Value) (any, error) {
	switch t := v.(type) {
	case webapp.Float32Array:
		for _, f := range t {
			if math.IsNaN(float64(f)) || math.IsInf(float64(f), 0) {
				return nil, fmt.Errorf("non-finite element %v", f)
			}
		}
		var bits bytes.Buffer
		if err := binary.Write(&bits, binary.LittleEndian, []float32(t)); err != nil {
			return nil, err
		}
		// Non-nil even when empty: json renders a nil []byte as null.
		return map[string][]byte{f32Key: append([]byte{}, bits.Bytes()...)}, nil
	case []webapp.Value:
		out := make([]any, len(t))
		for i, e := range t {
			w, err := toWire(e)
			if err != nil {
				return nil, err
			}
			out[i] = w
		}
		return out, nil
	case map[string]webapp.Value:
		out := make(map[string]any, len(t))
		for k, e := range t {
			w, err := toWire(e)
			if err != nil {
				return nil, err
			}
			out[k] = w
		}
		return out, nil
	default:
		return t, nil
	}
}

// f32FromWire reads a typed array from its marker's value, which must be
// the canonical base64 of finite little-endian float32s.
func f32FromWire(raw any) (webapp.Float32Array, error) {
	t, ok := raw.(string)
	if !ok {
		return nil, fmt.Errorf("%s marker is not base64 text", f32Key)
	}
	bits, err := base64.StdEncoding.DecodeString(t)
	if err != nil {
		return nil, err
	}
	if base64.StdEncoding.EncodeToString(bits) != t || len(bits)%4 != 0 {
		return nil, fmt.Errorf("%s payload is not the canonical base64 of whole float32s", f32Key)
	}
	fa := make(webapp.Float32Array, len(bits)/4)
	if err := binary.Read(bytes.NewReader(bits), binary.LittleEndian, []float32(fa)); err != nil {
		return nil, err
	}
	for i, f := range fa {
		if math.IsNaN(float64(f)) || math.IsInf(float64(f), 0) {
			return nil, fmt.Errorf("%s element %d is not finite", f32Key, i)
		}
	}
	return fa, nil
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
			return f32FromWire(raw)
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
