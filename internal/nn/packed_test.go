package nn_test

import (
	"bytes"
	"compress/flate"
	"errors"
	"io"
	"testing"

	"websnap/internal/models"
	"websnap/internal/nn"
)

// tiny is the catalog's TinyNet.
func tiny(t *testing.T) *nn.Network {
	t.Helper()
	net, err := models.BuildTinyNet("tinynet", 3)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// packAll is PackWeights' output in one slice.
func packAll(t *testing.T, blob []byte, segment int) []byte {
	t.Helper()
	var out []byte
	if err := nn.PackWeights(blob, segment, func(b []byte) error { out = append(out, b...); return nil }); err != nil {
		t.Fatal(err)
	}
	return out
}

// unpackAll reads what a packed body stands for.
func unpackAll(packed []byte, plainLen, segment int64) ([]byte, error) {
	r, err := nn.NewWeightsReader(bytes.NewReader(packed), plainLen, segment)
	if err != nil {
		return nil, err
	}
	return io.ReadAll(r)
}

// TestPackWeightsRoundTrip: a blob packed in segments — of one word, of a
// few, of a MB, or one segment for the whole — reads back byte for byte,
// through a reader that sees its bytes a few at a time; a plane body packed
// whole by the plane codec, the layout of every packed pre-send before
// segments, reads back through the same reader; and each segment, once its
// bytes are in, decodes before the next one arrives.
func TestPackWeightsRoundTrip(t *testing.T) {
	for _, blob := range [][]byte{tiny(t).WeightBlob(), oracleWeights(oddNet(t)), {1, 2, 3, 4, 5, 6, 7}} {
		for _, segment := range []int{0, 4, 12, 4096, nn.WeightSegment} {
			packed := packAll(t, blob, segment)
			got, err := unpackAll(packed, int64(len(blob)), int64(segment))
			if err != nil || !bytes.Equal(got, blob) {
				t.Fatalf("%d-byte blob in %d-byte segments: err %v, equal %v", len(blob), segment, err, bytes.Equal(got, blob))
			}
			r, _ := nn.NewWeightsReader(io.MultiReader(bytes.NewReader(packed[:len(packed)/3]), iotestOneByte(packed[len(packed)/3:])), int64(len(blob)), int64(segment))
			if got, err := io.ReadAll(r); err != nil || !bytes.Equal(got, blob) {
				t.Fatalf("byte-at-a-time read of %d-byte segments: err %v", segment, err)
			}
		}
		var whole bytes.Buffer
		fw, err := flate.NewWriter(&whole, flate.HuffmanOnly)
		if err != nil {
			t.Fatal(err)
		}
		if err := nn.PackPlanes(fw, blob); err != nil || fw.Close() != nil {
			t.Fatalf("packing whole planes: %v", err)
		}
		if got, err := unpackAll(whole.Bytes(), int64(len(blob)), 0); err != nil || !bytes.Equal(got, blob) {
			t.Fatalf("whole-blob plane body: err %v", err)
		}
	}

	// Every segment is decodable from the bytes emitted up to it.
	blob := make([]byte, 3*4096+8)
	for i := range blob {
		blob[i] = byte(i * 7)
	}
	var sofar []byte
	var segs int
	if err := nn.PackWeights(blob, 4096, func(b []byte) error {
		sofar = append(sofar, b...)
		segs++
		r, _ := nn.NewWeightsReader(bytes.NewReader(sofar), int64(len(blob)), 4096)
		got := make([]byte, min(segs*4096, len(blob)))
		if _, err := io.ReadFull(r, got); err != nil || !bytes.Equal(got, blob[:len(got)]) {
			t.Fatalf("segment %d does not decode from the bytes emitted so far: %v", segs, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if segs != 4 {
		t.Errorf("%d segments, want 4", segs)
	}
	if err := nn.PackWeights(blob, 6, func([]byte) error { return nil }); err == nil {
		t.Error("a segment of 6 bytes packed")
	}
}

// iotestOneByte reads b one byte per Read.
func iotestOneByte(b []byte) io.Reader { return &oneByte{b} }

type oneByte struct{ b []byte }

func (o *oneByte) Read(p []byte) (int, error) {
	if len(o.b) == 0 {
		return 0, io.EOF
	}
	if len(p) == 0 {
		return 0, nil
	}
	p[0], o.b = o.b[0], o.b[1:]
	return 1, nil
}

// TestPackWeightsRejectsMalformed: planes a byte short or long of the
// declared blob, a truncated stream, and a DEFLATE bomb all fail the reader.
func TestPackWeightsRejectsMalformed(t *testing.T) {
	blob := tiny(t).WeightBlob()
	packed := packAll(t, blob, 4096)
	n := int64(len(blob))
	for _, c := range []struct {
		name     string
		packed   []byte
		plainLen int64
	}{
		{"declared a byte long", packed, n + 1},
		{"declared a byte short", packed, n - 1},
		{"truncated", packed[:len(packed)/2], n},
		{"declared nothing", packed, 0},
	} {
		if _, err := unpackAll(c.packed, c.plainLen, 4096); err == nil {
			t.Errorf("%s: read without error", c.name)
		}
	}
	var bomb bytes.Buffer
	fw, _ := flate.NewWriter(&bomb, flate.BestCompression)
	fw.Write(make([]byte, 8<<20)) //nolint:errcheck // a Buffer does not fail
	fw.Close()
	if _, err := unpackAll(bomb.Bytes(), 8<<20, 0); err == nil {
		t.Errorf("an %d-byte bomb inflated to 8 MB", bomb.Len())
	}
}

// TestPackedModelsShrink: the catalog's weights pack to the ratio their
// planes allow — AgeNet's rear is the 45.6 MB the paper's partial offload
// pre-sends — and decode, as they arrive, to the model under its key.
func TestPackedModelsShrink(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the catalog models")
	}
	for _, c := range []struct {
		name string
		most float64 // packed over blob
	}{
		{models.AgeNet, 0.831},
		{models.GoogLeNet, 0.85},
	} {
		net, err := models.Build(c.name)
		if err != nil {
			t.Fatal(err)
		}
		blob, key := net.KeyedWeightBlob()
		if key != nn.Fingerprint(net) {
			t.Errorf("%s: KeyedWeightBlob key %s, Fingerprint %s", c.name, key, nn.Fingerprint(net))
		}
		packed := packAll(t, blob, nn.WeightSegment)
		if r := float64(len(packed)) / float64(len(blob)); r > c.most {
			t.Errorf("%s packs to %.4f of its blob, want at most %.3f", c.name, r, c.most)
		}
		spec, err := net.SpecJSON()
		if err != nil {
			t.Fatal(err)
		}
		r, err := nn.NewWeightsReader(bytes.NewReader(packed), int64(len(blob)), nn.WeightSegment)
		if err != nil {
			t.Fatal(err)
		}
		got, gotKey, err := nn.DecodeModelFrom(spec, r, int64(len(blob)))
		if err != nil || gotKey != key || !bytes.Equal(got.WeightBlob(), blob) {
			t.Fatalf("%s: decoded under %s (err %v), want %s", c.name, gotKey, err, key)
		}
	}
}

// TestDecodeModelFromBoundsWhatItBuilds: a spec that declares more
// parameters than its blob is refused, a blob cut off before half of it
// arrived fails before the network is built, and bytes after the last
// parameter are refused.
func TestDecodeModelFromBoundsWhatItBuilds(t *testing.T) {
	net := tiny(t)
	spec, err := net.SpecJSON()
	if err != nil {
		t.Fatal(err)
	}
	blob := net.WeightBlob()
	n := int64(len(blob))
	errShort := errors.New("short")
	for _, c := range []struct {
		name string
		r    io.Reader
		len  int64
	}{
		{"declared short", bytes.NewReader(blob[:n/4]), n / 4},
		{"cut off", io.MultiReader(bytes.NewReader(blob[:n/3]), errReader{errShort}), n},
		{"trailing byte", bytes.NewReader(append(blob[:n:n], 0)), n + 1},
	} {
		if _, _, err := nn.DecodeModelFrom(spec, c.r, c.len); err == nil {
			t.Errorf("%s: decoded", c.name)
		}
	}
	if _, key, err := nn.DecodeModelFrom(spec, bytes.NewReader(blob), n); err != nil || key != nn.Fingerprint(net) {
		t.Errorf("decoded under %s, err %v; want %s", key, err, nn.Fingerprint(net))
	}
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }
