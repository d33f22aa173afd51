package snapshot

import "bytes"

// SizeBreakdown decomposes a snapshot's encoded size the way the paper's
// Table 1 reports it: the model part (descriptors only: a pre-send ships the
// weights), the feature-data part (the typed arrays, dominant in partial
// inference), and the small remainder of code and state.
type SizeBreakdown struct {
	// TotalBytes is the full encoded size.
	TotalBytes int64 `json:"totalBytes"`
	// ModelBytes is the size of the __model lines: the models' descriptors.
	ModelBytes int64 `json:"modelBytes"`
	// FeatureBytes is the textual size of all Float32Array content in
	// globals and pending event payloads: each array's base64 payload,
	// Float32TextBytesPerValue per element.
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
	for _, line := range bytes.Split(data, []byte("\n")) { // one statement per line
		if bytes.HasPrefix(line, []byte("__model(")) {
			bd.ModelBytes += int64(len(line)) + 1
		}
	}
	for _, v := range s.Globals {
		_, feature := textSize(v)
		bd.FeatureBytes += int64(feature)
	}
	for _, ev := range s.Pending {
		_, feature := textSize(ev.Payload)
		bd.FeatureBytes += int64(feature)
	}
	bd.StateBytes = bd.TotalBytes - bd.ModelBytes - bd.FeatureBytes
	return bd, nil
}
