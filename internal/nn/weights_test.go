package nn_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"websnap/internal/models"
	"websnap/internal/nn"
)

// TestFingerprintsPinned pins the content keys of the catalog models: a key
// names a model across the fleet, in stores, model directories and peer
// fetches, so the weight encoding and the hash over it must not move.
func TestFingerprintsPinned(t *testing.T) {
	for _, c := range []struct{ name, key string }{
		{models.AgeNet, "bd39cb4d7c25e443ec328bcb"},
		{models.GoogLeNet, "3848804f93ea02936c2d3c16"},
		{models.GenderNet, "c5be7bf600f62784db1c5cde"},
		{"tinynet", "e26cbb727fe83317e81b9485"},
	} {
		t.Run(c.name, func(t *testing.T) {
			build := func() (*nn.Network, error) { return models.Build(c.name) }
			if c.name == "tinynet" {
				build = func() (*nn.Network, error) { return models.BuildTinyNet(c.name, 3) }
			}
			net, err := build()
			if err != nil {
				t.Fatal(err)
			}
			if got := nn.Fingerprint(net); got != c.key {
				t.Errorf("Fingerprint = %s, want %s", got, c.key)
			}
			var blob bytes.Buffer
			if err := net.EncodeWeights(&blob); err != nil {
				t.Fatal(err)
			}
			if got := nn.BlobFingerprint(net, blob.Bytes()); got != c.key {
				t.Errorf("BlobFingerprint = %s, want %s", got, c.key)
			}
		})
	}
}

// oracleWeights is the weight blob written one float at a time: magic, count,
// then every parameter as little-endian float32 bits, layer by layer.
func oracleWeights(net *nn.Network) []byte {
	var b bytes.Buffer
	binary.Write(&b, binary.LittleEndian, uint32(0x574e4e31)) //nolint:errcheck // a Buffer does not fail
	binary.Write(&b, binary.LittleEndian, uint32(net.TotalParams()))
	for _, l := range net.Layers() {
		for _, p := range l.Params() {
			for _, v := range p.Data() {
				binary.Write(&b, binary.LittleEndian, math.Float32bits(v))
			}
		}
	}
	return b.Bytes()
}

// oddNet is a network whose parameters cross EncodeWeights' chunk boundaries
// within one tensor and hold every kind of float32 bit pattern: signed
// zeros, infinities, NaNs with payloads, subnormals.
func oddNet(t *testing.T) *nn.Network {
	t.Helper()
	in, err := nn.NewInput("data", 3, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	conv, err := nn.NewConv("conv", 3, 5, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := nn.NewFC("fc", 5*10*10, 77)
	if err != nil {
		t.Fatal(err)
	}
	net, err := nn.NewNetwork("odd", in, conv, fc)
	if err != nil {
		t.Fatal(err)
	}
	net.InitWeights(3)
	special := []uint32{0x00000000, 0x80000000, 0x7f800000, 0xff800000, 0x7fc00001, 0xffbfffff, 0x00000001, 0x807fffff}
	for _, p := range fc.Params() {
		d := p.Data()
		for i := 0; i < len(d); i += 997 {
			d[i] = math.Float32frombits(special[(i/997)%len(special)])
		}
	}
	return net
}

// TestEncodeWeightsMatchesPerFloatOracle: the bulk encoder writes the bytes
// the per-float oracle writes, and the bulk decoder reads them back bit for
// bit — NaN payloads and signed zeros included.
func TestEncodeWeightsMatchesPerFloatOracle(t *testing.T) {
	tiny, err := models.BuildTinyNet("tiny", 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, net := range []*nn.Network{tiny, oddNet(t)} {
		want := oracleWeights(net)
		var got bytes.Buffer
		if err := net.EncodeWeights(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%s: EncodeWeights wrote %d bytes that differ from the per-float oracle's %d", net.Name(), got.Len(), len(want))
		}
		spec, err := net.SpecJSON()
		if err != nil {
			t.Fatal(err)
		}
		clone, err := nn.DecodeModel(spec, want)
		if err != nil {
			t.Fatal(err)
		}
		if back := oracleWeights(clone); !bytes.Equal(back, want) {
			t.Errorf("%s: DecodeWeights did not read the oracle's blob back bit for bit", net.Name())
		}
		if nn.BlobFingerprint(clone, want) != nn.Fingerprint(net) {
			t.Errorf("%s: the decoded blob's key differs from the model's", net.Name())
		}
	}
}

// FuzzWeightPlanes holds the plane codec to its contract: PackPlanes then
// UnpackPlanes gives any blob back unchanged, and UnpackPlanes on arbitrary
// input never panics, writes nothing outside dst, and refuses planes that are
// not exactly dst's length.
func FuzzWeightPlanes(f *testing.F) {
	f.Add([]byte{}, 0)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, 0)
	f.Add([]byte{0, 0, 0x80, 0x3f, 0, 0, 0, 0xc0}, -1)
	f.Add([]byte{0, 0, 0x80, 0x3f, 0, 0, 0, 0xc0}, 4)
	f.Fuzz(func(t *testing.T, data []byte, skew int) {
		var planes bytes.Buffer
		if err := nn.PackPlanes(&planes, data); err != nil {
			t.Fatal(err)
		}
		if planes.Len() != len(data) {
			t.Fatalf("%d bytes packed to %d planes bytes", len(data), planes.Len())
		}
		back := make([]byte, len(data))
		if err := nn.UnpackPlanes(back, planes.Bytes()); err != nil || !bytes.Equal(back, data) {
			t.Fatalf("round trip: err %v, blob changed", err)
		}

		const guard = 8
		n := max(len(data)+skew%8, 0) // dst's length, near the planes'
		mem := bytes.Repeat([]byte{0xa5}, n+2*guard)
		dst := mem[guard : guard+n : guard+n]
		err := nn.UnpackPlanes(dst, data)
		if (err != nil) != (len(data) != n) {
			t.Fatalf("%d bytes of planes into %d: err %v", len(data), n, err)
		}
		for i, b := range mem {
			if (i < guard || i >= guard+n) && b != 0xa5 {
				t.Fatalf("byte %d outside dst written", i-guard)
			}
		}
	})
}
