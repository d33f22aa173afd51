package snapshot

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"websnap/internal/protocol"
	"websnap/internal/testutil"
	"websnap/internal/webapp"
)

func pack(t testing.TB, text []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Pack(&buf, text); err != nil {
		t.Fatalf("Pack: %v", err)
	}
	return buf.Bytes()
}

// reluFeatures stands in for a post-ReLU, max-pooled feature map: a fifth
// zeros, neighbours often equal — what the paper's partial offload ships.
func reluFeatures(n int) webapp.Float32Array {
	fa := make(webapp.Float32Array, n)
	s := uint64(12345)
	for i := range fa {
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		switch {
		case s%5 == 0:
		case i > 0 && s%3 == 0:
			fa[i] = fa[i-1]
		default:
			fa[i] = float32(s%4096) / 64
		}
	}
	return fa
}

// packedSeeds are texts at the edges of what Pack looks for.
func packedSeeds(t testing.TB) map[string][]byte {
	t.Helper()
	b64 := func(n int) string {
		return base64.StdEncoding.EncodeToString(bytes.Repeat([]byte{0, 0, 0x80, 0x3f}, n))
	}
	specWire, err := offloadSnapshot(t, 3*16*16, ModelSpecOnly).Encode()
	if err != nil {
		t.Fatal(err)
	}
	// The form a model once took inside the text: its weights as base64 in
	// the __model line's last literal. Decode refuses it; Pack leaves it text.
	inlineWire := bytes.Replace(specWire, []byte(`, "");`), []byte(`, "`+b64(600)+`");`), 1)
	if bytes.Equal(inlineWire, specWire) {
		t.Fatal("the offload snapshot has no __model line")
	}
	features, err := arraySnapshot(t, map[string]webapp.Float32Array{
		"feature": reluFeatures(4096),
		"empty":   {},
		"zeros":   {0, float32(math.Copysign(0, -1)), 0},
	}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{
		"snapshot with typed arrays":  features,
		"snapshot with inline model":  inlineWire,
		"empty text":                  {},
		"marker inside a string":      []byte(`var s = "see {\"__f32__\":\"` + b64(40) + `\"} for the form";` + "\n"),
		"marker in a string, real":    []byte(`var s = "{"__f32__":"` + b64(40) + `"}";` + "\n"),
		"non-canonical trailing bits": []byte(`var x = {"__f32__":"` + b64(40)[:len(b64(40))-3] + `B=="};` + "\n"),
		"line break in the payload":   []byte(`var x = {"__f32__":"` + b64(30) + "\r\n" + b64(30) + `"};` + "\n"),
		"url alphabet":                []byte(`var x = {"__f32__":"` + strings.Repeat("-_-_", 32) + `"};` + "\n"),
		"unpadded":                    []byte(`var x = {"__f32__":"` + strings.TrimRight(b64(40), "=") + `"};` + "\n"),
		"not whole floats":            []byte(`var x = {"__f32__":"` + base64.StdEncoding.EncodeToString(make([]byte, 62)) + `"};` + "\n"),
		"payload never closed":        []byte(`var x = {"__f32__":"` + b64(40)),
		"two arrays on a line":        []byte(`var x = [{"__f32__":"` + b64(33) + `"},{"__f32__":"` + b64(9) + `"}];`),
		"model line":                  []byte(`__model("m", {"name":"m"}, "` + b64(64) + `");` + "\r\n"),
		"model line, odd weights":     []byte(`__model("m", {"name":", \""}, "` + base64.StdEncoding.EncodeToString(make([]byte, 61)) + `");` + "\n"),
		"model line, no weights":      []byte(`__model("m", {"name":"m"}, "");` + "\n"),
		"binary":                      {0, 0xff, '"', 0x80, '\n', '{', 1, 2, 3},
	}
}

// FuzzPackedBody: Unpack inverts Pack on arbitrary bytes, and arbitrary bytes
// offered as a packed form either yield exactly the declared length of text or
// an error — never a panic, never a write outside dst.
func FuzzPackedBody(f *testing.F) {
	for _, seed := range packedSeeds(f) {
		f.Add(seed, uint16(len(seed)))
		f.Add(pack(f, seed), uint16(len(seed)))
	}
	f.Fuzz(func(t *testing.T, data []byte, declared uint16) {
		packed := pack(t, data)
		if len(packed) > len(data)+binary.MaxVarintLen32 {
			t.Errorf("packed form of %d bytes is %d: a run cost more than it saved", len(data), len(packed))
		}
		text := make([]byte, len(data))
		if err := Unpack(text, packed); err != nil {
			t.Fatalf("Unpack(Pack(x)): %v", err)
		}
		if !bytes.Equal(text, data) {
			t.Fatalf("Unpack(Pack(x)) != x\n x: %q\ngot: %q", data, text)
		}
		for _, wrong := range []int{len(data) - 1, len(data) + 1} {
			if wrong >= 0 && Unpack(make([]byte, wrong), packed) == nil {
				t.Errorf("a packed form of %d bytes unpacked into %d", len(data), wrong)
			}
		}

		// data as a packed form someone else made.
		guard := []byte("guard")
		buf := append(make([]byte, int(declared), int(declared)+len(guard)), guard...)
		err := Unpack(buf[:declared:declared], data)
		if !bytes.Equal(buf[declared:], guard) {
			t.Fatal("Unpack wrote past dst")
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("Unpack error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		again := make([]byte, declared)
		if err := Unpack(again, pack(t, buf[:declared])); err != nil || !bytes.Equal(again, buf[:declared]) {
			t.Errorf("text unpacked from arbitrary bytes does not survive a round trip: %v", err)
		}
	})
}

// TestPackLeavesWhatItCannotRestore: a payload becomes a run only when it is
// the canonical base64 of whole float32s and long enough to pay for its
// framing; anything else — and a marker that is really inside a string — stays
// the text it was. Either way the text comes back byte for byte.
func TestPackLeavesWhatItCannotRestore(t *testing.T) {
	runs := map[string]int{
		"snapshot with typed arrays": 1, // "empty" and the three "zeros" stay text
		"snapshot with inline model": 1, // the image; weights in a __model line stay text
		"marker in a string, real":   1, // the same bytes as an array: same packed form, same text back
		"two arrays on a line":       1, // 33 floats; 9 are under minRunText
	}
	for name, text := range packedSeeds(t) {
		packed := pack(t, text)
		got := 0
		for rest, run := packed, false; len(rest) > 0; run = !run {
			n, used := binary.Uvarint(rest)
			if run {
				got++
			}
			rest = rest[used+int(n):]
		}
		if got != runs[name] {
			t.Errorf("%s: %d runs, want %d", name, got, runs[name])
		}
		back := make([]byte, len(text))
		if err := Unpack(back, packed); err != nil || !bytes.Equal(back, text) {
			t.Errorf("%s: round trip: err %v, equal %v", name, err, bytes.Equal(back, text))
		}
	}
}

// TestUnpackRejectsMalformed names each way a packed form can be wrong.
func TestUnpackRejectsMalformed(t *testing.T) {
	lit := func(s string) []byte { return append(binary.AppendUvarint(nil, uint64(len(s))), s...) }
	run := func(n int) []byte { return append(binary.AppendUvarint(nil, uint64(n)), make([]byte, n)...) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	for name, c := range map[string]struct {
		packed   []byte
		declared int
	}{
		"empty":                      {nil, 0},
		"literal cut short":          {lit("abcdef")[:4], 6},
		"literal length past end":    {[]byte{200, 1, 'a'}, 200},
		"length prefix cut short":    {[]byte{0x80}, 0},
		"length prefix overflows":    {bytes.Repeat([]byte{0xff}, 11), 0},
		"run cut short":              {cat(lit("a"), run(8)[:5], lit("")), 13},
		"run length past end":        {cat(lit("a"), []byte{100}, make([]byte, 8)), 13},
		"run of three bytes":         {cat(lit("a"), run(3), lit("b")), 6},
		"run of six bytes":           {cat(lit("a"), run(6), lit("b")), 10},
		"ends after a run":           {cat(lit("a"), run(4)), 9},
		"text longer than declared":  {lit("abcdef"), 5},
		"text shorter than declared": {lit("abcdef"), 7},
		"run longer than declared":   {cat(lit("a"), run(8), lit("")), 12},
	} {
		if err := Unpack(make([]byte, c.declared), c.packed); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	if err := Unpack(make([]byte, 1+8+1), cat(lit("a"), run(4), lit("b"))); err != nil {
		t.Errorf("a well-formed packed form: %v", err)
	}
}

// TestPackedBodyCostsItsOutputs is the host-independent gate on the wire
// codec: packing a 400 KB partial-offload body and decoding it again allocates
// the decoded text and, against storage the sender keeps, nothing else the
// size of the body — flate state and the inflated intermediate are pooled, the
// payload streams into the compressor a chunk at a time. What is left beside
// the text is compress/flate's Huffman tables, built afresh for each of the
// stream's blocks (≈ 70 KB here). The decoded text is the sender's, byte for
// byte.
func TestPackedBodyCostsItsOutputs(t *testing.T) {
	text, err := arraySnapshot(t, map[string]webapp.Float32Array{"feature": reluFeatures(96 * 28 * 28)}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	var storage, body []byte
	round := func() {
		var ok bool
		if body, ok, err = protocol.CompressBody(storage, text, Pack); err != nil || !ok {
			t.Fatalf("CompressBody: ok %v, err %v", ok, err)
		}
		storage = body[:0]
		plain, err := protocol.DecodeBody(body, protocol.EncodingPacked, int64(len(text)), Unpack)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(plain, text) {
			t.Fatal("decoded text differs from the text sent")
		}
	}
	round() // fills the pools and sizes the storage
	t.Logf("%d B of text travel as %d B (%.3f×)", len(text), len(body), float64(len(body))/float64(len(text)))
	if len(body) > len(text)/2 {
		t.Errorf("a post-ReLU feature map packed to %d of %d B, want at most half", len(body), len(text))
	}
	if testutil.RaceDetector {
		return // the detector makes sync.Pool drop a share of what it is given
	}
	// The median round: a pool is per processor and emptied by the
	// collector, so the odd round builds a flate.Writer again.
	perRound := make([]uint64, 11)
	for i := range perRound {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		round()
		runtime.ReadMemStats(&after)
		perRound[i] = after.TotalAlloc - before.TotalAlloc
	}
	slices.Sort(perRound)
	if median, limit := perRound[len(perRound)/2], uint64(len(text))*125/100; median > limit {
		t.Errorf("a round trip of a %d B body allocated %d B, want ≤ %d (the text, once, and inflate's tables)", len(text), median, limit)
	}
}
