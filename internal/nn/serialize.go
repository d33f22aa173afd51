package nn

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
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

// DecodeSpec parses a JSON net descriptor and builds the network.
func DecodeSpec(data []byte) (*Network, error) {
	var spec NetSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("nn: decode spec: %w", err)
	}
	return Build(spec)
}

// Fingerprint hashes a model's architecture and weights into its stable
// content identity: sha256 over the encoded spec followed by the encoded
// weights, truncated to 24 hex chars. Equal fingerprints mean
// byte-identical models; the fleet blob index and the cross-server model
// transfer path key blobs by this value.
func Fingerprint(n *Network) string {
	h := sha256.New()
	if spec, err := n.SpecJSON(); err == nil {
		h.Write(spec)
	}
	if err := n.EncodeWeights(h); err != nil {
		return ""
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// EncodeWeights writes all parameter tensors as little-endian float32,
// preceded by a magic word and the total count for integrity checking.
func (n *Network) EncodeWeights(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], weightsMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(n.TotalParams()))
	if _, err := bw.Write(hdr[:]); err != nil {
		return fmt.Errorf("nn: encode weights: %w", err)
	}
	var buf [4]byte
	for _, l := range n.layers {
		for _, p := range l.Params() {
			for _, v := range p.Data() {
				binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
				if _, err := bw.Write(buf[:]); err != nil {
					return fmt.Errorf("nn: encode weights: %w", err)
				}
			}
		}
	}
	return bw.Flush()
}

// DecodeWeights reads a weight blob produced by EncodeWeights into the
// network's parameter tensors. The parameter count must match exactly.
func (n *Network) DecodeWeights(r io.Reader) error {
	br := bufio.NewReader(r)
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return fmt.Errorf("nn: decode weights header: %w", err)
	}
	if m := binary.LittleEndian.Uint32(hdr[0:4]); m != weightsMagic {
		return fmt.Errorf("nn: decode weights: bad magic %#x", m)
	}
	count := binary.LittleEndian.Uint32(hdr[4:8])
	if int64(count) != n.TotalParams() {
		return fmt.Errorf("nn: decode weights: blob has %d params, network needs %d", count, n.TotalParams())
	}
	defer n.weightsChanged() // also when the blob turns out short
	var buf [4]byte
	for _, l := range n.layers {
		for _, p := range l.Params() {
			d := p.Data()
			for i := range d {
				if _, err := io.ReadFull(br, buf[:]); err != nil {
					return fmt.Errorf("nn: decode weights (layer %q): %w", l.Name(), err)
				}
				d[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[:]))
			}
		}
	}
	return nil
}
