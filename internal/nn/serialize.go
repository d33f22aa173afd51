package nn

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"math"
)

// weightsMagic guards the binary weight-blob format.
const weightsMagic = uint32(0x574e4e31) // "WNN1"

// LayerSpec is the serializable description of one layer. Together with the
// weight blob it forms the "description/parameters of the NN" that the
// paper's client pre-sends to the edge server (§III.B.1).
type LayerSpec struct {
	Type LayerType `json:"type"`
	Name string    `json:"name"`

	// Conv / FC geometry.
	InC    int `json:"inC,omitempty"`
	OutC   int `json:"outC,omitempty"`
	K      int `json:"k,omitempty"`
	Stride int `json:"stride,omitempty"`
	Pad    int `json:"pad,omitempty"`
	In     int `json:"in,omitempty"`
	Out    int `json:"out,omitempty"`

	// Pool.
	Pooling Pooling `json:"pooling,omitempty"`

	// LRN.
	LocalSize int     `json:"localSize,omitempty"`
	Alpha     float64 `json:"alpha,omitempty"`
	Beta      float64 `json:"beta,omitempty"`

	// Dropout.
	Ratio float64 `json:"ratio,omitempty"`

	// Input.
	Shape []int `json:"shape,omitempty"`

	// Inception.
	Branches [][]LayerSpec `json:"branches,omitempty"`
}

// NetSpec is the serializable description of a whole network.
type NetSpec struct {
	Name   string      `json:"name"`
	Layers []LayerSpec `json:"layers"`
}

// Spec returns the serializable description of the network.
func (n *Network) Spec() (NetSpec, error) {
	specs, err := layersToSpecs(n.layers)
	if err != nil {
		return NetSpec{}, err
	}
	return NetSpec{Name: n.name, Layers: specs}, nil
}

func layersToSpecs(layers []Layer) ([]LayerSpec, error) {
	specs := make([]LayerSpec, 0, len(layers))
	for _, l := range layers {
		s, err := layerToSpec(l)
		if err != nil {
			return nil, err
		}
		specs = append(specs, s)
	}
	return specs, nil
}

func layerToSpec(l Layer) (LayerSpec, error) {
	switch t := l.(type) {
	case *Input:
		return LayerSpec{Type: TypeInput, Name: t.Name(), Shape: t.ExpectedShape()}, nil
	case *Conv:
		inC, outC, k, stride, pad := t.Geometry()
		return LayerSpec{Type: TypeConv, Name: t.Name(), InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad}, nil
	case *Pool:
		k, stride, pad := t.Geometry()
		return LayerSpec{Type: TypePool, Name: t.Name(), Pooling: t.Kind(), K: k, Stride: stride, Pad: pad}, nil
	case *FC:
		in, out := t.Geometry()
		return LayerSpec{Type: TypeFC, Name: t.Name(), In: in, Out: out}, nil
	case *ReLU:
		return LayerSpec{Type: TypeReLU, Name: t.Name()}, nil
	case *LRN:
		ls, a, b := t.Settings()
		return LayerSpec{Type: TypeLRN, Name: t.Name(), LocalSize: ls, Alpha: a, Beta: b}, nil
	case *Dropout:
		return LayerSpec{Type: TypeDropout, Name: t.Name(), Ratio: t.Ratio()}, nil
	case *Softmax:
		return LayerSpec{Type: TypeSoftmax, Name: t.Name()}, nil
	case *Inception:
		branches := make([][]LayerSpec, 0, len(t.Branches()))
		for _, b := range t.Branches() {
			bs, err := layersToSpecs(b)
			if err != nil {
				return LayerSpec{}, err
			}
			branches = append(branches, bs)
		}
		return LayerSpec{Type: TypeInception, Name: t.Name(), Branches: branches}, nil
	default:
		return LayerSpec{}, fmt.Errorf("%w: %T", ErrUnknownLayer, l)
	}
}

// Build constructs a network from its serialized description. Weights are
// zeroed; load them with DecodeWeights.
func Build(spec NetSpec) (*Network, error) {
	layers, err := specsToLayers(spec.Layers)
	if err != nil {
		return nil, fmt.Errorf("nn: build %q: %w", spec.Name, err)
	}
	return NewNetwork(spec.Name, layers...)
}

func specsToLayers(specs []LayerSpec) ([]Layer, error) {
	layers := make([]Layer, 0, len(specs))
	for _, s := range specs {
		l, err := specToLayer(s)
		if err != nil {
			return nil, err
		}
		layers = append(layers, l)
	}
	return layers, nil
}

func specToLayer(s LayerSpec) (Layer, error) {
	switch s.Type {
	case TypeInput:
		return NewInput(s.Name, s.Shape...)
	case TypeConv:
		return NewConv(s.Name, s.InC, s.OutC, s.K, s.Stride, s.Pad)
	case TypePool:
		return NewPool(s.Name, s.Pooling, s.K, s.Stride, s.Pad)
	case TypeFC:
		return NewFC(s.Name, s.In, s.Out)
	case TypeReLU:
		return NewReLU(s.Name), nil
	case TypeLRN:
		return NewLRN(s.Name, s.LocalSize, s.Alpha, s.Beta)
	case TypeDropout:
		return NewDropout(s.Name, s.Ratio), nil
	case TypeSoftmax:
		return NewSoftmax(s.Name), nil
	case TypeInception:
		branches := make([][]Layer, 0, len(s.Branches))
		for _, bs := range s.Branches {
			b, err := specsToLayers(bs)
			if err != nil {
				return nil, err
			}
			branches = append(branches, b)
		}
		return NewInception(s.Name, branches...)
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownLayer, s.Type)
	}
}

// EncodeSpec renders the net descriptor as JSON, in a slice the caller
// owns.
func EncodeSpec(n *Network) ([]byte, error) {
	spec, err := n.SpecJSON()
	return bytes.Clone(spec), err
}

// SpecJSON returns the network's descriptor as EncodeSpec renders it,
// encoded on the first call and shared by every later one: callers must not
// modify it. These are the bytes a snapshot's __model line carries and a
// spec-only reference is checked against.
func (n *Network) SpecJSON() ([]byte, error) {
	n.specOnce.Do(func() {
		var spec NetSpec
		if spec, n.specErr = n.Spec(); n.specErr == nil {
			n.spec, n.specErr = json.Marshal(spec)
		}
	})
	return n.spec, n.specErr
}

// DecodeModel rebuilds a network from its JSON descriptor and weight blob,
// the pair a pre-send carries and a model directory holds. The blob bounds
// the model: a descriptor declaring more parameters than the blob can hold
// is refused before any layer is built, so a hostile descriptor cannot make
// the decoder allocate more than it was sent. The blob must hold the
// network's weights and nothing after them, so that it is byte for byte what
// EncodeWeights writes for the network decoded from it.
func DecodeModel(data, weights []byte) (*Network, error) {
	var spec NetSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("nn: decode spec: %w", err)
	}
	if p, most := specParams(spec.Layers), float64(len(weights))/4; p > most {
		return nil, fmt.Errorf("nn: spec %q declares %.0f parameters, more than %.0f", spec.Name, p, most)
	}
	n, err := Build(spec)
	if err != nil {
		return nil, err
	}
	r := bytes.NewReader(weights)
	if err := n.DecodeWeights(r); err != nil {
		return nil, err
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("nn: decode weights: %d bytes after the last parameter", r.Len())
	}
	return n, nil
}

// specParams counts the parameters the layers' geometry declares, in
// float64 so that no geometry overflows it; a negative dimension counts as
// zero, since the layer constructor refuses it before allocating.
func specParams(specs []LayerSpec) float64 {
	dim := func(v int) float64 { return math.Max(float64(v), 0) }
	var n float64
	for _, s := range specs {
		switch s.Type {
		case TypeConv:
			n += dim(s.OutC)*dim(s.InC)*dim(s.K)*dim(s.K) + dim(s.OutC)
		case TypeFC:
			n += dim(s.Out)*dim(s.In) + dim(s.Out)
		case TypeInception:
			for _, b := range s.Branches {
				n += specParams(b)
			}
		}
	}
	return n
}

// Fingerprint hashes a model's architecture and weights into its stable
// content identity: sha256 over the encoded spec followed by the encoded
// weights, truncated to 24 hex chars. Equal fingerprints mean
// byte-identical models; the fleet blob index and the cross-server model
// transfer path key blobs by this value.
func Fingerprint(n *Network) string { return fingerprint(n, n.EncodeWeights) }

// BlobFingerprint is Fingerprint for a holder of the network's encoded
// weights, blob (EncodeWeights' output, or the blob DecodeModel built the
// network from): it hashes them as they are instead of encoding them again.
func BlobFingerprint(n *Network, blob []byte) string {
	return fingerprint(n, func(w io.Writer) error {
		_, err := w.Write(blob)
		return err
	})
}

func fingerprint(n *Network, weights func(io.Writer) error) string {
	h := fingerprintHash(n)
	if err := weights(h); err != nil {
		return ""
	}
	return fingerprintSum(h)
}

// fingerprintHash starts a Fingerprint: the hash, fed the model's spec.
func fingerprintHash(n *Network) hash.Hash {
	h := sha256.New()
	if spec, err := n.SpecJSON(); err == nil {
		h.Write(spec)
	}
	return h
}

// fingerprintSum ends a Fingerprint, once the hash has been fed the blob.
func fingerprintSum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)[:12]) }

// weightChunk is how many bytes of parameters EncodeWeights and
// DecodeWeights convert between writes or reads.
const weightChunk = 64 << 10

// EncodeWeights writes all parameter tensors as little-endian float32,
// preceded by a magic word and the total count for integrity checking.
func (n *Network) EncodeWeights(w io.Writer) error {
	buf := binary.LittleEndian.AppendUint32(make([]byte, 0, weightChunk), weightsMagic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n.TotalParams()))
	for _, l := range n.layers {
		for _, p := range l.Params() {
			for _, v := range p.Data() {
				if len(buf) == cap(buf) {
					if _, err := w.Write(buf); err != nil {
						return fmt.Errorf("nn: encode weights: %w", err)
					}
					buf = buf[:0]
				}
				buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
			}
		}
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("nn: encode weights: %w", err)
	}
	return nil
}

// WeightBlob returns what EncodeWeights writes: the blob a pre-send uploads,
// a model directory holds and a fleet peer fetches.
func (n *Network) WeightBlob() []byte {
	var buf bytes.Buffer
	buf.Grow(int(n.ModelBytes()) + 8) // the weights plus magic and count
	n.EncodeWeights(&buf)             //nolint:errcheck // a bytes.Buffer does not fail
	return buf.Bytes()
}

// DecodeWeights reads a weight blob produced by EncodeWeights into the
// network's parameter tensors. The parameter count must match exactly.
func (n *Network) DecodeWeights(r io.Reader) error {
	buf := make([]byte, weightChunk)
	if _, err := io.ReadFull(r, buf[:8]); err != nil {
		return fmt.Errorf("nn: decode weights header: %w", err)
	}
	if m := binary.LittleEndian.Uint32(buf[0:4]); m != weightsMagic {
		return fmt.Errorf("nn: decode weights: bad magic %#x", m)
	}
	count := binary.LittleEndian.Uint32(buf[4:8])
	if int64(count) != n.TotalParams() {
		return fmt.Errorf("nn: decode weights: blob has %d params, network needs %d", count, n.TotalParams())
	}
	defer n.weightsChanged() // also when the blob turns out short
	for _, l := range n.layers {
		for _, p := range l.Params() {
			for d := p.Data(); len(d) > 0; {
				m := min(len(d), len(buf)/4)
				in := buf[:4*m]
				if _, err := io.ReadFull(r, in); err != nil {
					return fmt.Errorf("nn: decode weights (layer %q): %w", l.Name(), err)
				}
				for i := range d[:m] {
					d[i] = math.Float32frombits(binary.LittleEndian.Uint32(in[4*i:]))
				}
				d = d[m:]
			}
		}
	}
	return nil
}

// PackPlanes writes a weight blob as byte planes, the pack step of a
// pre-send that travels packed (protocol.EncodingPacked): the blob's 4-byte
// little-endian words split into four planes, the high byte of every word
// first, then the next lower byte of every word, and so on, with the bytes
// after the last whole word at the end. A float32's high byte is its sign and
// seven exponent bits, which vary little across a layer's weights; on their
// own they give DEFLATE runs to code that interleaved with the mantissa they
// do not (DESIGN.md has the ratios). The planes are exactly as long as the
// blob. A writer that can Flush — a flate.Writer — is flushed at the end of
// each plane, so that no DEFLATE block codes two planes with one table.
func PackPlanes(w io.Writer, blob []byte) error {
	flush := func() error { return nil }
	if f, ok := w.(interface{ Flush() error }); ok {
		flush = f.Flush
	}
	words := len(blob) / 4
	chunk := make([]byte, min(words, weightChunk))
	for b := 3; b >= 0; b-- {
		for i := 0; i < words; i += len(chunk) {
			out, src := chunk[:min(len(chunk), words-i)], blob[4*i+b:]
			for j := range out {
				out[j] = src[4*j]
			}
			if _, err := w.Write(out); err != nil {
				return err
			}
		}
		if err := flush(); err != nil {
			return err
		}
	}
	_, err := w.Write(blob[4*words:])
	return err
}

// UnpackPlanes puts planes (PackPlanes' output) back to the blob they stand
// for, in dst, which must be exactly as long.
func UnpackPlanes(dst, planes []byte) error {
	if len(planes) != len(dst) {
		return fmt.Errorf("nn: %d bytes of weight planes cannot be a %d-byte blob", len(planes), len(dst))
	}
	words := len(dst) / 4
	hi, b2, b1, lo := planes[:words], planes[words:2*words], planes[2*words:3*words], planes[3*words:4*words]
	for i := range words {
		binary.LittleEndian.PutUint32(dst[4*i:], uint32(hi[i])<<24|uint32(b2[i])<<16|uint32(b1[i])<<8|uint32(lo[i]))
	}
	copy(dst[4*words:], planes[4*words:])
	return nil
}
