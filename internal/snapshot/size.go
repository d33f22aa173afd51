package snapshot

import (
	"encoding/base64"
	"encoding/json"

	"websnap/internal/webapp"
)

// SizeBreakdown decomposes a snapshot's encoded size the way the paper's
// Table 1 reports it: the model part (which pre-sending removes), the
// feature-data part (the typed arrays, dominant in partial inference), and
// the small remainder of code and state.
type SizeBreakdown struct {
	// TotalBytes is the full encoded size.
	TotalBytes int64 `json:"totalBytes"`
	// ModelBytes is the size of the __model lines (descriptors plus any
	// included weight blobs).
	ModelBytes int64 `json:"modelBytes"`
	// FeatureBytes is the textual size of all Float32Array content in
	// globals and pending event payloads.
	FeatureBytes int64 `json:"featureBytes"`
	// StateBytes is everything else: plain globals, DOM, bindings,
	// pending-event scaffolding — "snapshot except feature data" minus
	// the model.
	StateBytes int64 `json:"stateBytes"`
}

// ExceptFeatureBytes returns the Table 1 quantity "snapshot except feature
// data": total size minus the typed-array payloads.
func (b SizeBreakdown) ExceptFeatureBytes() int64 { return b.TotalBytes - b.FeatureBytes }

// Breakdown encodes the snapshot and decomposes its size.
func (s *Snapshot) Breakdown() (SizeBreakdown, error) {
	data, err := s.Encode()
	if err != nil {
		return SizeBreakdown{}, err
	}
	var bd SizeBreakdown
	bd.TotalBytes = int64(len(data))
	for _, ms := range s.Models {
		spec, err := json.Marshal(ms.Spec)
		if err != nil {
			return SizeBreakdown{}, err
		}
		// "__model(" + name-json + ", " + spec + ", " + quoted blob + ");\n"
		name, err := json.Marshal(ms.Name)
		if err != nil {
			return SizeBreakdown{}, err
		}
		blobLen := int64(2) // the surrounding quotes
		if ms.Weights != nil {
			blobLen += int64(base64.StdEncoding.EncodedLen(len(ms.Weights)))
		}
		bd.ModelBytes += int64(len("__model(")+len(name)+2+len(spec)+2) + blobLen + int64(len(");\n"))
	}
	for _, v := range s.Globals {
		bd.FeatureBytes += featureTextBytes(v)
	}
	for _, ev := range s.Pending {
		bd.FeatureBytes += featureTextBytes(ev.Payload)
	}
	bd.StateBytes = bd.TotalBytes - bd.ModelBytes - bd.FeatureBytes
	return bd, nil
}

// featureTextBytes measures the textual size of every Float32Array in the
// value tree, as encoded inside the snapshot.
func featureTextBytes(v webapp.Value) int64 {
	switch t := v.(type) {
	case webapp.Float32Array:
		// Brackets and commas, then each element as Encode wrote it
		// (Breakdown's Encode has already rejected non-finite elements).
		total := int64(2 + max(len(t)-1, 0))
		var scratch [32]byte
		for _, f := range t {
			text, _ := appendFloat(scratch[:0], float64(f), 32)
			total += int64(len(text))
		}
		return total
	case []webapp.Value:
		var total int64
		for _, e := range t {
			total += featureTextBytes(e)
		}
		return total
	case map[string]webapp.Value:
		var total int64
		for _, e := range t {
			total += featureTextBytes(e)
		}
		return total
	default:
		return 0
	}
}
