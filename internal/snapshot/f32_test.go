package snapshot

import (
	"bytes"
	"encoding/base64"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"websnap/internal/mlapp"
	"websnap/internal/testutil"
	"websnap/internal/webapp"
)

// arraySnapshot is a captured app whose state is the given typed arrays.
func arraySnapshot(t testing.TB, arrays map[string]webapp.Float32Array) *Snapshot {
	t.Helper()
	app, err := webapp.NewApp("f32", seedRegistry())
	if err != nil {
		t.Fatal(err)
	}
	for name, fa := range arrays {
		if err := app.SetGlobal(name, fa); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := Capture(app, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestTypedArrayBitsRoundTrip: every finite bit pattern — signed zeros,
// subnormals, the extremes, 10⁴ random ones, at lengths on both sides of the
// conversion chunk — comes out of encode → decode as the same bits, and the
// receiver's content hash is the sender's.
func TestTypedArrayBitsRoundTrip(t *testing.T) {
	edges := webapp.Float32Array{
		0, float32(math.Copysign(0, -1)), 1e-45, -1e-45, math.SmallestNonzeroFloat32,
		math.Float32frombits(0x007fffff), math.Float32frombits(0x807fffff), // largest subnormals
		math.Float32frombits(0x00800000), 1.1754942e-38, 1, -1, 0.1, 1.0 / 3,
		math.MaxFloat32, -math.MaxFloat32, math.Float32frombits(0x7f7fffff),
	}
	r := rand.New(rand.NewSource(20))
	random := make(webapp.Float32Array, 0, 10000)
	for len(random) < cap(random) {
		if bits := r.Uint32(); bits&0x7f800000 != 0x7f800000 {
			random = append(random, math.Float32frombits(bits))
		}
	}
	arrays := map[string]webapp.Float32Array{"edges": edges, "random": random, "empty": {}}
	for _, n := range []int{1, 2, 3, 4, f32Chunk - 1, f32Chunk, f32Chunk + 1, 2*f32Chunk - 1, 2 * f32Chunk, 2*f32Chunk + 2} {
		arrays[fmt.Sprintf("len%d", n)] = random[n : 2*n]
	}
	sent := arraySnapshot(t, arrays)
	wire, err := sent.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Globals) != len(sent.Globals) {
		t.Fatalf("decoded %d globals, sent %d", len(got.Globals), len(sent.Globals))
	}
	for name, want := range sent.Globals {
		if !webapp.Identical(want, got.Globals[name]) {
			t.Errorf("global %q changed bits across the wire", name)
		}
	}
	if hs, hg := hashOf(t, sent), hashOf(t, got); hs != hg {
		t.Errorf("content hash differs across the wire: %s sent, %s received", hs, hg)
	}
	if again, err := got.Encode(); err != nil || !bytes.Equal(again, wire) {
		t.Errorf("re-encoding the decoded snapshot changed its bytes (err %v)", err)
	}
}

// TestTypedArrayTextIsStrict: the decoder refuses what the encoder refuses —
// anything but the canonical base64 of whole, finite float32s is ErrCorrupt,
// wherever in the payload it sits, and so is a marker whose value is not
// text at all, such as the decimal array older encoders wrote.
func TestTypedArrayTextIsStrict(t *testing.T) {
	decodeMarker := func(value string) error {
		wire := header + "\nvar __appID = \"a\";\nvar __codeHash = \"b\";\nvar x = {\"" + f32Key + "\":" + value + "};\n__dom({\"tag\":\"body\"});\n"
		_, err := Decode([]byte(wire))
		return err
	}
	decode := func(payload string) error { return decodeMarker(`"` + payload + `"`) }
	vals := make([]float32, 3*f32Chunk+1)
	for i := range vals {
		vals[i] = float32(i) / 8
	}
	good, err := appendFloat32s(nil, vals)
	if err != nil {
		t.Fatal(err)
	}
	text := string(good[1 : len(good)-1])
	if err := decode(text); err != nil {
		t.Fatalf("the encoder's own payload: %v", err)
	}
	inf := base64.StdEncoding.EncodeToString([]byte{0, 0, 0x80, 0x7f})
	nan := base64.StdEncoding.EncodeToString([]byte{1, 0, 0x80, 0xff})
	lateInf := base64.StdEncoding.EncodeToString([]byte{0, 0, 0, 0, 0, 0, 0x80, 0xff, 0, 0, 0, 0}) // three floats, unpadded
	mid := f32ChunkText + 8                                                                        // inside the second chunk
	for name, payload := range map[string]string{
		"unpadded":             strings.TrimRight(text, "="),
		"extra padding":        text + "====",
		"trailing bits set":    text[:len(text)-3] + "B==",
		"url alphabet":         text[:mid] + "-_" + text[mid+2:],
		"carriage return":      text[:mid] + "\r" + text[mid:],
		"escaped line break":   text[:mid] + `\n` + text[mid:],
		"space":                text[:mid] + " " + text[mid+1:],
		"padding mid-payload":  text[:mid] + "AA==" + text[mid:],
		"one byte short":       text[:len(text)-4] + "AAA=",
		"one byte long":        text[:len(text)-4] + "AAAAAA==",
		"+Inf first":           inf,
		"NaN first":            nan,
		"−Inf in a late chunk": text[:2*f32ChunkText] + lateInf + text[2*f32ChunkText+len(lateInf):],
	} {
		if err := decode(payload); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	for name, value := range map[string]string{
		"decimal array":                 `[0,-0,1e-45,1.1754942e-38,0.1,-1.5,16777216,3.4028235e38]`,
		"empty decimal array":           `[]`,
		"decimal array with whitespace": ` [ 1 , 2.5 ] `,
		"decimal beyond float32":        `[1e39]`,
		"decimal array in a late chunk": `[` + strings.Repeat("0.25,", 3*f32Chunk) + `7]`,
		"number":                        `1`,
		"null":                          `null`,
	} {
		if err := decodeMarker(value); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestManyObjectsDecodeInLinearTime: the typed-array fast path gives up on an
// object at its first byte that is not the marker's, so megabytes of small
// objects from a peer cost what the general reader costs. (A fast path that
// searched for the payload's closing quote before looking at the prefix
// scanned the rest of the body once per object: 2 MB took 24 s, not 0.15.)
func TestManyObjectsDecodeInLinearTime(t *testing.T) {
	const objects = 700_000
	body := []byte("[" + strings.Repeat("{},", objects-1) + "{}]")
	best := time.Hour
	for try := 0; try < 3 && best > 5*time.Second; try++ { // a loaded host gets three goes
		start := time.Now()
		v, err := parseValue(body)
		best = min(best, time.Since(start))
		if got, _ := v.([]webapp.Value); err != nil || len(got) != objects {
			t.Fatalf("%d values, err %v; want %d", len(got), err, objects)
		}
	}
	if best > 5*time.Second {
		t.Errorf("%d empty objects (%d KB) took %v to parse", objects, len(body)>>10, best)
	}
}

// TestTypedArraySizesAreExact: the encoder reserves exactly what a typed
// array takes, Breakdown attributes exactly its payload, and both agree with
// the exported per-value width the cost models price by.
func TestTypedArraySizesAreExact(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 1000, 75264, 150528} {
		fa := mlapp.SyntheticImage(n, 3)
		enc, err := appendValue(nil, fa)
		if err != nil {
			t.Fatal(err)
		}
		payload := int64(len(enc) - len(`{"`+f32Key+`":""}`))
		if text, feature := textSize(fa); text != len(enc) || int64(feature) != payload {
			t.Errorf("n=%d: textSize %d of which %d payload, encoded %d of which %d", n, text, feature, len(enc), payload)
		}
		if priced := int64(float64(n) * Float32TextBytesPerValue); payload < priced || payload > priced+3 {
			t.Errorf("n=%d: payload %d B, priced %d B by Float32TextBytesPerValue", n, payload, priced)
		}
	}
}

// TestTypedArrayCodecAllocations is the host-independent gate on the codec:
// around one GoogLeNet-sized global, Encode allocates its output buffer and
// next to nothing else (no staging copy of the bits, no growth of a buffer
// sized short), and Decode allocates the array and next to nothing else (no
// string or byte copy of the payload).
func TestTypedArrayCodecAllocations(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one processor, as testing.AllocsPerRun measures
	const volume = 150528
	for name, snap := range map[string]*Snapshot{
		"one global":  arraySnapshot(t, map[string]webapp.Float32Array{"image": mlapp.SyntheticImage(volume, 7)}),
		"ml app":      offloadSnapshot(t, volume, ModelSpecOnly),
		"with result": offloadSnapshot(t, volume, ModelOmit),
	} {
		wire, err := snap.Encode()
		if err != nil {
			t.Fatal(err)
		}
		encode := func() {
			if _, err := snap.Encode(); err != nil {
				t.Fatal(err)
			}
		}
		decode := func() {
			if _, err := Decode(wire); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range []struct {
			op       string
			run      func()
			maxBytes uint64
		}{
			{"Encode", encode, uint64(len(wire)) * 105 / 100},
			{"Decode", decode, 4*volume*105/100 + 64<<10},
		} {
			c.run()
			a := testutil.MeasureAllocs(5, c.run)
			if a.Mallocs > 128 {
				t.Errorf("%s, %s: %d allocations, want ≤ 128", name, c.op, a.Mallocs)
			}
			if a.Bytes > c.maxBytes {
				t.Errorf("%s, %s of a %d-float snapshot (%d B encoded) allocated %d B, want ≤ %d", name, c.op, volume, len(wire), a.Bytes, c.maxBytes)
			}
		}
	}
}
