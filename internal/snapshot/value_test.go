package snapshot

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"websnap/internal/mlapp"
	"websnap/internal/models"
	"websnap/internal/nn"
	"websnap/internal/testutil"
	"websnap/internal/webapp"
)

// randValue builds a random tree over the whole value universe: floats from
// raw bit patterns (so every exponent shows up), strings with the bytes
// encoding/json escapes.
func randValue(r *rand.Rand, depth int) webapp.Value {
	kinds := 7
	if depth <= 0 {
		kinds = 5
	}
	switch r.Intn(kinds) {
	case 0:
		return nil
	case 1:
		return r.Intn(2) == 0
	case 2:
		for {
			if f := math.Float64frombits(r.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	case 3:
		return randString(r)
	case 4:
		fa := make(webapp.Float32Array, r.Intn(6))
		for i := range fa {
			for {
				f := math.Float32frombits(r.Uint32())
				if f64 := float64(f); !math.IsNaN(f64) && !math.IsInf(f64, 0) {
					fa[i] = f
					break
				}
			}
		}
		return fa
	case 5:
		arr := make([]webapp.Value, r.Intn(4))
		for i := range arr {
			arr[i] = randValue(r, depth-1)
		}
		return arr
	default:
		m := make(map[string]webapp.Value)
		for i := r.Intn(4); i > 0; i-- {
			m[randString(r)] = randValue(r, depth-1)
		}
		delete(m, f32Key)
		return m
	}
}

func randString(r *rand.Rand) string {
	alphabet := []string{"a", "Z", "0", " ", `"`, `\`, "<", ">", "&", "/", "\n", "\x00", "\x7f",
		"é", "\u2028", "😀", "\xff", "_", "$"}
	var sb strings.Builder
	for i := r.Intn(8); i > 0; i-- {
		sb.WriteString(alphabet[r.Intn(len(alphabet))])
	}
	return sb.String()
}

// TestValueCodecMatchesJSON pins the encoder to encoding/json byte for
// byte, on random trees and on the float formats' edge cases.
func TestValueCodecMatchesJSON(t *testing.T) {
	check := func(v webapp.Value) bool {
		want, werr := encodeValue(v)
		got, gerr := appendValue(nil, v)
		if (werr != nil) != (gerr != nil) {
			t.Errorf("%#v: json err %v, codec err %v", v, werr, gerr)
			return false
		}
		if werr == nil && want != string(got) {
			t.Errorf("%#v:\n json  %s\n codec %s", v, want, got)
			return false
		}
		return true
	}
	err := quick.Check(func(seed int64) bool {
		return check(randValue(rand.New(rand.NewSource(seed)), 3))
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Error(err)
	}

	f32 := []float32{
		0, float32(math.Copysign(0, -1)), 1, -1, 0.1, 1.0 / 3, 255.0 / 255, 7.0 / 255,
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-45, 1e-40, 1.1754942e-38,
		1e-6, math.Nextafter32(1e-6, 0), math.Nextafter32(1e-6, 1), 1e-7, 1e-9, 1e-10, 9.999999e-7,
		1e21, math.Nextafter32(1e21, 0), math.Nextafter32(1e21, math.MaxFloat32), 1e20, 1e22,
		math.MaxFloat32, -math.MaxFloat32, 16777216, 123456.79,
	}
	check(webapp.Float32Array(f32))
	for _, f := range f32 {
		check(float64(f))
	}
	for _, f := range []float64{
		math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 1e-6, math.Nextafter(1e-6, 0),
		math.Nextafter(1e-6, 1), 1e-7, 1e-9, 1e-10, 1e-100, 1e21, math.Nextafter(1e21, 0),
		math.Nextafter(1e21, math.Inf(1)), 1e100, math.MaxFloat64, -math.MaxFloat64, 1 << 53, 0.1 + 0.2,
	} {
		check(f)
	}
	// Every float32 exponent, many mantissas.
	r := rand.New(rand.NewSource(1))
	bulk := make(webapp.Float32Array, 0, 1<<16)
	for len(bulk) < cap(bulk) {
		if f := math.Float32frombits(r.Uint32()); !math.IsNaN(float64(f)) && !math.IsInf(float64(f), 0) {
			bulk = append(bulk, f)
		}
	}
	check(bulk)

	for _, v := range []webapp.Value{
		math.NaN(), math.Inf(1), math.Inf(-1),
		webapp.Float32Array{1, float32(math.NaN())}, webapp.Float32Array{float32(math.Inf(-1))},
		[]webapp.Value{map[string]webapp.Value{"x": math.NaN()}},
	} {
		if _, err := appendValue(nil, v); !errors.Is(err, errNonFinite) {
			t.Errorf("%v: err = %v, want errNonFinite", v, err)
		}
		check(v)
	}
	if _, err := appendValue(nil, 42); err == nil {
		t.Error("an int is outside the value universe and must not encode")
	}
}

// checkParseParity requires the parser and the json oracle to agree on
// body: both reject it, or both accept it with identical results.
func checkParseParity(t *testing.T, body []byte) {
	t.Helper()
	want, werr := decodeValue(string(body))
	got, gerr := parseValue(body)
	if (werr != nil) != (gerr != nil) {
		t.Errorf("%.200q: json err %v, parser err %v", body, werr, gerr)
		return
	}
	if werr == nil && !reflect.DeepEqual(want, got) {
		t.Errorf("%.200q:\n json   %#v\n parser %#v", body, want, got)
	}
}

// checkStatementParity runs checkParseParity over every value an encoded
// snapshot or delta carries: `var` bodies and __dispatch payloads.
func checkStatementParity(t *testing.T, data []byte) {
	t.Helper()
	_, rest := cutLine(data)
	for len(rest) > 0 {
		var line []byte
		line, rest = cutLine(rest)
		if v, ok := bytes.CutPrefix(line, []byte("var ")); ok {
			if _, body, ok := bytes.Cut(v, []byte(" = ")); ok {
				checkParseParity(t, bytes.TrimSuffix(body, []byte(";")))
			}
		}
		if body, ok := callBody(line, "__dispatch"); ok {
			var oracle struct {
				Payload any `json:"payload"`
			}
			var we wireEvent
			if json.Unmarshal(body, &oracle) != nil || json.Unmarshal(body, &we) != nil || len(we.Payload) == 0 {
				continue
			}
			want, werr := fromWire(oracle.Payload)
			got, gerr := parseValue(we.Payload)
			if (werr != nil) != (gerr != nil) || werr == nil && !reflect.DeepEqual(want, got) {
				t.Errorf("payload %.200q: json %#v (err %v), parser %#v (err %v)", body, want, werr, got, gerr)
			}
		}
	}
}

// parityBodies are value texts at the edges of the grammar and of the
// Float32Array marker rule.
func parityBodies() []string {
	deep := func(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }
	return []string{
		``, ` `, `null`, `true`, `false`, `nul`, `truex`, `null null`, `nullfalse`,
		`0`, `-0`, `-`, `01`, `-01`, `1.`, `.5`, `+1`, `1e`, `1e+`, `1E+2`, `1e-2`, `0.0e0`, `1.5e3x`,
		`1e308`, `1e309`, `-1e999`, `1e-999`, `123456789012345678901234567890`, `0x10`, `1_0`, `Infinity`, `NaN`,
		`""`, `"a"`, `"a\"b"`, `"\\"`, `"\"`, `"\u00e9"`, `"\ud83d\ude00"`, `"\ud83d"`, `"\u12"`, `"\u12\"`,
		`"\x"`, "\"a\tb\"", "\"\xff\"", "\"\x7f\"", `"<>&"`, `"é"`, `"unterminated`, `"a"b`,
		`[]`, `[ ]`, `[1]`, `[1,]`, `[,1]`, `[1 2]`, `[1,2`, `[[],{}]`, ` [ 1 , "a" , null ] `,
		`{}`, `{ }`, `{"a":1}`, `{"a":1,}`, `{"a"}`, `{"a":}`, `{a:1}`, `{"a":1 "b":2}`, `{"a":1,"a":2}`,
		"\t{\r\"a\" :\t[ true ,false ]\r} ", `{"a":{"b":{"c":[1,{"d":null}]}}}`,
		// The decimal array older encoders wrote, well- and ill-formed: a
		// marker value that is not text is refused however it is spelled.
		`{"__f32__":[]}`, `{"__f32__":[1]}`, `{"__f32__":[1,2.5,-3e2]}`, ` { "__f32__" : [ 1 , 2 ] } `,
		`{"__f32__":[ ]}`, `{"__f32__":[1,]}`, `{"__f32__":[,]}`, `{"__f32__":[1 2]}`, `{"__f32__":[1,2}`,
		`{"__f32__":[1,2]`, `{"__f32__":[1,2]]}`, `{"__f32__":[01]}`, `{"__f32__":[-]}`, `{"__f32__":[1.]}`,
		`{"__f32__":[1e39]}`, `{"__f32__":[-1e39]}`, `{"__f32__":[1e999]}`, `{"__f32__":[1e-60]}`,
		`{"__f32__":[0.1,16777217,3.4028235e38,3.4028236e38]}`,
		`{"__f32__":[1,"a"]}`, `{"__f32__":[1,null]}`, `{"__f32__":[[1]]}`, `{"__f32__":[1,[2]]}`,
		`{"__f32__":"x"}`, `{"__f32__":null}`, `{"__f32__":{}}`, `{"__f32__":1}`,
		`{"__f32__":[1],"a":2}`, `{"a":2,"__f32__":[1]}`, `{"__f32__":[1,"a"],"b":2}`,
		`{"__f32__":[1],"__f32__":[2]}`, `{"__f32__":"x","__f32__":[2]}`, `{"__f32__":[2],"__f32__":"x"}`,
		`{"__f32__":[1,"a"],"__f32__":[3]}`, `{"__f32\u005f_":[1,2]}`, `{"__f32__":[1],"__f32\u005f_":[4]}`,
		`{"__f32__":[1]}x`, `{"__f32__":[1]} ]`, `[{"__f32__":[1]},{"__f32__":[2,3]}]`,
		`{"k":{"__f32__":[1]}}`, `{"__f32__":{"__f32__":[1]}}`, `{"__f32__":[1,{"__f32__":[1,{"__f32__":[1]}]}]}`,
		`{"__f32__":[1,{"__f32__":[1,{"__f32__":[1`,
		// The base64 form: 1 → AACAPw==, [1,2] → AACAPwAAAEA=, [1,2,3] unpadded.
		`{"__f32__":""}`, `{"__f32__":"AACAPw=="}`, `{"__f32__":"AACAPwAAAEA="}`, `{"__f32__":"AACAPwAAAEAAAEBA"}`,
		` { "__f32__" : "AACAPw==" } `, `{"__f32__":"AACAPw=="}x`, `{"__f32__":"AACAPw=="`, `{"__f32__":"AACAPw==}`,
		`[{"__f32__":"AACAPw=="},{"__f32__":""}]`, `{"k":{"__f32__":"AACAPw=="}}`,
		`{"__f32__":"AACAPw==","a":2}`, `{"a":2,"__f32__":"AACAPw=="}`,
		`{"__f32__":[1],"__f32__":"AACAPw=="}`, `{"__f32__":"AACAPw==","__f32__":[2]}`, `{"__f32\u005f_":"AACAPw=="}`,
		// Objects that only start like the marker, or not at all, many in a
		// row: each is read the general way and costs its own length.
		`[{},{},{},{}]`, `[{"__f32__":"AACAPw==" },{"__f32__":"AACAPw==","a":1},{"__f32_":"x"}]`, `[{},{"__f32__":"AACAPw==`,
		// Not canonical: no padding, over-padded, trailing bits set, URL
		// alphabet, escapes that spell valid or invalid text, line breaks.
		`{"__f32__":"AACAPw"}`, `{"__f32__":"AACAPw="}`, `{"__f32__":"AACAPw==="}`, `{"__f32__":"AACAPx=="}`,
		`{"__f32__":"AACAP-=="}`, `{"__f32__":"AACAP/=="}`, `{"__f32__":"AACA\u0050w=="}`, `{"__f32__":"AACA\u0021w=="}`,
		`{"__f32__":"AACA\nPw=="}`, `{"__f32__":"AACAPw==\r\n"}`, "{\"__f32__\":\"AACA\rPw==\"}", `{"__f32__":"AACA Pw=="}`,
		`{"__f32__":"AA==AACAPw=="}`, `{"__f32__":"===="}`, `{"__f32__":"="}`, `{"__f32__":"\"}`, `{"__f32__":"\""}`,
		// Not whole float32s: 1, 2, 3, 5 and 6 bytes.
		`{"__f32__":"AA=="}`, `{"__f32__":"AAA="}`, `{"__f32__":"AAAA"}`, `{"__f32__":"AACAPwA="}`, `{"__f32__":"AACAPwAA"}`,
		// Non-finite bit patterns: +Inf, −Inf, a quiet and a signalling NaN,
		// alone and after a finite element; the largest finite one passes.
		`{"__f32__":"AACAfw=="}`, `{"__f32__":"AACA/w=="}`, `{"__f32__":"AADAfw=="}`, `{"__f32__":"AQCAfw=="}`,
		`{"__f32__":"AACAPwAAgH8="}`, `{"__f32__":"//9/fw=="}`,
		deep(maxDepth), deep(maxDepth + 1),
		strings.Repeat("[", maxDepth-2) + `{"__f32__":[1]}` + strings.Repeat("]", maxDepth-2),
		strings.Repeat("[", maxDepth-1) + `{"__f32__":[1]}` + strings.Repeat("]", maxDepth-1),
		strings.Repeat("[", maxDepth-1) + `{"__f32__":"AACAPw=="}` + strings.Repeat("]", maxDepth-1),
		strings.Repeat("[", maxDepth) + `{"__f32__":"AACAPw=="}` + strings.Repeat("]", maxDepth),
		strings.Repeat(`{"a":`, maxDepth) + `1` + strings.Repeat("}", maxDepth),
		strings.Repeat(`{"a":`, maxDepth+1) + `1` + strings.Repeat("}", maxDepth+1),
	}
}

func TestParseValueMatchesJSON(t *testing.T) {
	for _, body := range parityBodies() {
		checkParseParity(t, []byte(body))
	}
	// And so does every tree the encoder can produce.
	err := quick.Check(func(seed int64) bool {
		enc, err := appendValue(nil, randValue(rand.New(rand.NewSource(seed)), 3))
		if err != nil {
			return false
		}
		checkParseParity(t, enc)
		return !t.Failed()
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Error(err)
	}
}

func TestParseValueDepthBound(t *testing.T) {
	for _, body := range []string{
		strings.Repeat("[", maxDepth+1) + strings.Repeat("]", maxDepth+1),
		strings.Repeat("[", 1<<20),
	} {
		wire := header + "\nvar __appID = \"a\";\nvar __codeHash = \"b\";\nvar x = " + body + ";\n__dom({\"tag\":\"body\"});\n"
		if _, err := Decode([]byte(wire)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%d-deep nesting: err = %v, want ErrCorrupt", len(body)/2, err)
		}
	}
}

// variedSnapshot is a captured state with every value type, escapes, a
// pending payload, DOM children and a binding.
func variedSnapshot(t *testing.T) *Snapshot {
	t.Helper()
	app, err := webapp.NewApp("codec", seedRegistry())
	if err != nil {
		t.Fatal(err)
	}
	app.DOM().AppendChild(webapp.NewNode("button", "btn"))
	app.DOM().AppendChild(webapp.NewNode("p", "result"))
	if err := app.AddEventListener("btn", "click", "noop"); err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]webapp.Value{
		"image":      mlapp.SyntheticImage(768, 7),
		"labels":     []webapp.Value{"cat", "dog", "bird", "a <b> & \"c\""},
		"resultText": "?",
		"config":     map[string]webapp.Value{"threshold": 0.5, "debug": true, "none": nil},
	} {
		if err := app.SetGlobal(name, v); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := Capture(app, Options{PendingEvent: &webapp.Event{
		Target: "btn", Type: "click", Payload: map[string]webapp.Value{"at": webapp.Float32Array{1, 2}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// offloadSnapshot is the mlapp state around an image of volume floats (768
// is TinyNet's input, 150528 GoogLeNet's) with the click pending: under
// ModelSpecOnly what a client ships per click once the model is pre-sent,
// under ModelOmit the shape of what comes back.
func offloadSnapshot(tb testing.TB, volume int, policy ModelPolicy) *Snapshot {
	tb.Helper()
	model, err := models.BuildTinyNet("net", 3)
	if err != nil {
		tb.Fatal(err)
	}
	app, err := mlapp.NewFullApp("codec", "net", model, []string{"cat", "dog", "bird"})
	if err != nil {
		tb.Fatal(err)
	}
	if err := mlapp.LoadImage(app, mlapp.SyntheticImage(volume, 7)); err != nil {
		tb.Fatal(err)
	}
	snap, err := Capture(app, Options{
		DefaultModelPolicy: policy,
		PendingEvent:       &webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return snap
}

// TestDecodeDoesNotAliasInput: protocol bodies may be reused, so nothing a
// decoded snapshot or delta holds may point into the bytes it came from.
func TestDecodeDoesNotAliasInput(t *testing.T) {
	snap := variedSnapshot(t)
	snap.Models = []ModelState{{Name: "m", Spec: []byte(`{"name":"m","layers":[]}`)}}
	wire, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	input := bytes.Clone(wire)
	got, err := Decode(input)
	if err != nil {
		t.Fatal(err)
	}
	for i := range input {
		input[i] = 'x'
	}
	if again, err := got.Encode(); err != nil || !bytes.Equal(again, wire) {
		t.Errorf("snapshot changed after its input was overwritten (err %v)", err)
	}

	base := *snap
	base.Globals = map[string]webapp.Value{"image": webapp.Float32Array{9}}
	d, err := Diff(&base, snap, "base")
	if err != nil {
		t.Fatal(err)
	}
	d.DelGlobals = []string{"gone"}
	dwire, err := d.Encode()
	if err != nil {
		t.Fatal(err)
	}
	input = bytes.Clone(dwire)
	dgot, err := DecodeDelta(input)
	if err != nil {
		t.Fatal(err)
	}
	for i := range input {
		input[i] = 'x'
	}
	if again, err := dgot.Encode(); err != nil || !bytes.Equal(again, dwire) {
		t.Errorf("delta changed after its input was overwritten (err %v)", err)
	}
}

// TestDecodeAllocs pins the zero-copy line walk and the direct
// Float32Array parse: a snapshot around a GoogLeNet-sized array decodes in
// a handful of allocations and under 1 MB beyond the array itself, and a
// real offload result costs no more allocations at that size than at
// TinyNet's.
func TestDecodeAllocs(t *testing.T) {
	const volume = 150528
	app, err := webapp.NewApp("allocs", seedRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if err := app.SetGlobal("image", mlapp.SyntheticImage(volume, 7)); err != nil {
		t.Fatal(err)
	}
	snap, err := Capture(app, Options{PendingEvent: &webapp.Event{Target: "btn", Type: "click"}})
	if err != nil {
		t.Fatal(err)
	}
	wire, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decode := func(wire []byte) func() {
		return func() {
			if _, err := Decode(wire); err != nil {
				t.Fatal(err)
			}
		}
	}
	if allocs := testing.AllocsPerRun(5, decode(wire)); allocs >= 64 {
		t.Errorf("Decode of a %d-float snapshot: %.0f allocations, want < 64", volume, allocs)
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		decode(wire)()
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	if limit := uint64(4*volume + 1<<20); perRun >= limit {
		t.Errorf("Decode of a %d-float snapshot allocated %d B, want < %d", volume, perRun, limit)
	}

	small, err := offloadSnapshot(t, 768, ModelOmit).Encode()
	if err != nil {
		t.Fatal(err)
	}
	large, err := offloadSnapshot(t, volume, ModelOmit).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if s, l := testing.AllocsPerRun(5, decode(small)), testing.AllocsPerRun(5, decode(large)); l > s {
		t.Errorf("Decode allocations grow with the image: %.0f at 768 floats, %.0f at %d", s, l, volume)
	}
}

// TestSpecOnlySnapshotSkipsSpecWork is the host-independent gate on the
// spec's per-request cost: a request carries its models' descriptors as the
// bytes nn.EncodeSpec rendered once, Encode copies them and Decode keeps
// them, with no marshal or unmarshal of a NetSpec in between. Encode +
// Decode of TinyNet's spec-only request allocated 139 times and 21,392 B
// when both ran (go1.24, amd64); now at least 30 % less. Under GoogLeNet's
// 9.7 KB descriptor it allocates no more often than under TinyNet's, and
// its bytes grow by the larger encoded output and one decoded copy of the
// spec (the json round trip cost 548 allocations and 110,936 B).
func TestSpecOnlySnapshotSkipsSpecWork(t *testing.T) {
	if testutil.RaceDetector {
		t.Skip("the race detector changes allocation counts")
	}
	tiny := offloadSnapshot(t, 768, ModelSpecOnly)
	googlenet, err := models.Build(models.GoogLeNet)
	if err != nil {
		t.Fatal(err)
	}
	big := *tiny
	big.Models = []ModelState{{Name: tiny.Models[0].Name}}
	if big.Models[0].Spec, err = nn.EncodeSpec(googlenet); err != nil {
		t.Fatal(err)
	}
	measure := func(snap *Snapshot) (allocs float64, bytes uint64) {
		run := func() {
			wire, err := snap.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Decode(wire); err != nil {
				t.Fatal(err)
			}
		}
		allocs = testing.AllocsPerRun(10, run)
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	tinyAllocs, tinyBytes := measure(tiny)
	if tinyAllocs > 139*7/10 || tinyBytes > 21392*7/10 {
		t.Errorf("TinyNet spec-only Encode + Decode: %.0f allocations, %d B; want ≤ %d and ≤ %d B", tinyAllocs, tinyBytes, 139*7/10, 21392*7/10)
	}
	bigAllocs, bigBytes := measure(&big)
	grown := len(big.Models[0].Spec) - len(tiny.Models[0].Spec)
	if limit := tinyBytes + uint64(2*grown) + 1<<10; bigAllocs > tinyAllocs || bigBytes > limit {
		t.Errorf("GoogLeNet spec-only Encode + Decode: %.0f allocations, %d B; want ≤ %.0f and ≤ %d B (TinyNet's, plus the %d B larger spec twice)", bigAllocs, bigBytes, tinyAllocs, limit, grown)
	}
}

func TestGlobalNamesValidated(t *testing.T) {
	bad := []string{"__appID", "__codeHash", "__baseHash", "a = b", "a\nb", "a b", "", "1a", "a-b", "a;", "\xff"}
	good := []string{"a", "_a1", "$x", "größe", "__private"}
	capture := func(name string) error {
		app, err := webapp.NewApp("names", seedRegistry())
		if err != nil {
			t.Fatal(err)
		}
		if err := app.SetGlobal(name, "evil"); err != nil {
			t.Fatal(err)
		}
		_, err = Capture(app, Options{})
		return err
	}
	deltaEncode := func(name string) error {
		d := &Delta{AppID: "a", CodeHash: "b", BaseHash: "c", SetGlobals: map[string]webapp.Value{name: "evil"}}
		_, err := d.Encode()
		return err
	}
	for _, name := range bad {
		if err := capture(name); !errors.Is(err, ErrReservedKey) {
			t.Errorf("Capture with global %q: err = %v, want ErrReservedKey", name, err)
		}
		if err := deltaEncode(name); !errors.Is(err, ErrReservedKey) {
			t.Errorf("Delta.Encode with global %q: err = %v, want ErrReservedKey", name, err)
		}
	}
	for _, name := range good {
		if err := capture(name); err != nil {
			t.Errorf("Capture with global %q: %v", name, err)
		}
		if err := deltaEncode(name); err != nil {
			t.Errorf("Delta.Encode with global %q: %v", name, err)
		}
	}
	// What the encoders refuse to write, the decoders refuse to read: a
	// snapshot cannot smuggle a delta's identity variable in as a global.
	for _, name := range []string{"__baseHash", "a b", "1a"} {
		wire := fmt.Sprintf("%s\nvar __appID = \"a\";\nvar __codeHash = \"b\";\nvar %s = 1;\n__dom({\"tag\":\"body\"});\n", header, name)
		if _, err := Decode([]byte(wire)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("Decode with global %q: err = %v, want ErrCorrupt", name, err)
		}
	}
}

func benchStates(b *testing.B, run func(b *testing.B, snap *Snapshot)) {
	for _, size := range []struct {
		name   string
		volume int
	}{{"tinynet", 3 * 16 * 16}, {"googlenet", 3 * 224 * 224}} {
		b.Run(size.name, func(b *testing.B) { run(b, offloadSnapshot(b, size.volume, ModelSpecOnly)) })
	}
}

var benchSink any

func BenchmarkSnapshotEncode(b *testing.B) {
	benchStates(b, func(b *testing.B, snap *Snapshot) {
		wire, err := snap.Encode()
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(wire)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchSink, _ = snap.Encode()
		}
	})
}

func BenchmarkSnapshotDecode(b *testing.B) {
	benchStates(b, func(b *testing.B, snap *Snapshot) {
		wire, err := snap.Encode()
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(wire)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchSink, _ = Decode(wire)
		}
	})
}
