package snapshot

import (
	"errors"
	"testing"

	"websnap/internal/mlapp"
	"websnap/internal/models"
	"websnap/internal/webapp"
)

// addGrammarSeeds seeds a decoder fuzz target with statements at the edges
// of the value grammar, each wrapped as a `var` line and as a __dispatch
// payload after prefix (the header and identity lines).
func addGrammarSeeds(f *testing.F, prefix string) {
	for _, body := range parityBodies() {
		if len(body) > 1<<10 {
			continue // the deep-nesting bodies: too big to mutate usefully
		}
		f.Add([]byte(prefix + "var x = " + body + ";\r\n__dom({\"tag\":\"body\"});\n" +
			"__dispatch({\"target\":\"b\",\"type\":\"c\",\"payload\":" + body + "});\n"))
	}
}

// FuzzDecode hardens the snapshot parser: arbitrary bytes must either
// decode into a snapshot that re-encodes cleanly, or fail — never panic —
// and every value in them must parse exactly as the json oracle says.
func FuzzDecode(f *testing.F) {
	app, err := webapp.NewApp("fuzz", seedRegistry())
	if err != nil {
		f.Fatal(err)
	}
	if err := app.SetGlobal("x", webapp.Float32Array{1, 2, 3}); err != nil {
		f.Fatal(err)
	}
	snap, err := Capture(app, Options{})
	if err != nil {
		f.Fatal(err)
	}
	wire, err := snap.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wire)
	f.Add([]byte(header + "\n"))
	f.Add([]byte(header + "\nvar x = {\"__f32__\":[1e999]};\n"))
	f.Add([]byte(header + "\nvar x = {\"__f32__\":\"AACAfw==\"};\n")) // +Inf's bits
	addGrammarSeeds(f, header+"\r\nvar __appID = \"a\";\nvar __codeHash = \"b\";\n")
	// The __model split takes the name as the leading string and requires an
	// empty weights literal after the spec: separators and parentheses inside
	// the name or the spec's strings, a missing, null or unterminated spec, a
	// trailing comma, and weights literals that are base64 or are not.
	for _, args := range []string{
		`"m", {"name":"a\", \")","layers":[{"type":"relu","name":"), \""}]}, ""`,
		`"a\", \"b)", {"name":"m"}, "AAAA"`,
		`"m", , ""`, `"m", null, ""`, `"m", {"name":"m", ""`, `"m", {"name":"m"}, "",`,
		`"m", {"name":"m"}, "AA"AA"`, `"m", {"name":"m"}, "AA\\AA"`, `"m", {"name":"m"}, "AA\"`,
	} {
		f.Add([]byte(header + "\nvar __appID = \"a\";\nvar __codeHash = \"b\";\n__model(" + args + ");\n__dom({\"tag\":\"body\"});\n"))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkStatementParity(t, data)
		s, err := Decode(data)
		if err != nil {
			return
		}
		// Decode refuses what Encode would: a decimal typed array and a
		// non-finite bit pattern are corrupt, not ±Inf or NaN in hand.
		if _, err := s.Encode(); err != nil {
			t.Errorf("decoded snapshot failed to re-encode: %v", err)
		}
	})
}

// FuzzDecodeDelta hardens the delta parser the same way.
func FuzzDecodeDelta(f *testing.F) {
	app, err := webapp.NewApp("fuzz", seedRegistry())
	if err != nil {
		f.Fatal(err)
	}
	base, err := Capture(app, Options{})
	if err != nil {
		f.Fatal(err)
	}
	if err := app.SetGlobal("y", 4.5); err != nil {
		f.Fatal(err)
	}
	cur, err := Capture(app, Options{})
	if err != nil {
		f.Fatal(err)
	}
	d, err := Diff(base, cur, hashOf(f, base))
	if err != nil {
		f.Fatal(err)
	}
	wire, err := d.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wire)
	f.Add([]byte(deltaHeader + "\n__delete(\"x\");\n"))
	addGrammarSeeds(f, deltaHeader+"\r\nvar __appID = \"a\";\nvar __codeHash = \"b\";\nvar __baseHash = \"c\";\n")
	f.Fuzz(func(t *testing.T, data []byte) {
		checkStatementParity(t, data)
		dd, err := DecodeDelta(data)
		if err != nil {
			return
		}
		// A decoded map may use the marker key beside others; Encode refuses it.
		if _, err := dd.Encode(); err != nil && !errors.Is(err, ErrReservedKey) {
			t.Errorf("decoded delta failed to re-encode: %v", err)
		}
	})
}

// FuzzDeltaApply exercises the full delta pipeline — decode a delta,
// decode a base, apply one to the other — against arbitrary byte pairs.
// The corpus is seeded with real mlapp state (feature tensors, DOM
// mutations, pending events) so the fuzzer starts from wire bytes the
// production path actually produces. Invariants: Apply never panics, a
// failed apply is the typed ErrBaseMismatch (given a hashable base),
// Apply never mutates its base, and a successful apply yields a snapshot
// that re-encodes, re-decodes, and keeps a stable identity hash.
func FuzzDeltaApply(f *testing.F) {
	model, err := models.BuildTinyNet("tiny", 3)
	if err != nil {
		f.Fatal(err)
	}
	app, err := mlapp.NewFullApp("fuzz-ml", "tiny", model, []string{"a", "b", "c"})
	if err != nil {
		f.Fatal(err)
	}
	// Omit model weights from the corpus: they dominate the wire size and
	// make per-exec decode cost too high for the fuzzer to make progress,
	// while contributing nothing to delta coverage (deltas never carry
	// models).
	capOpts := Options{DefaultModelPolicy: ModelOmit}
	base, err := Capture(app, capOpts)
	if err != nil {
		f.Fatal(err)
	}
	baseWire, err := base.Encode()
	if err != nil {
		f.Fatal(err)
	}
	// Mutate through the real app: load an image (feature globals change),
	// then click (DOM result text changes, pending event queued).
	if err := mlapp.LoadImage(app, mlapp.SyntheticImage(3*16*16, 7)); err != nil {
		f.Fatal(err)
	}
	app.DispatchEvent(webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick})
	cur, err := Capture(app, capOpts)
	if err != nil {
		f.Fatal(err)
	}
	d, err := Diff(base, cur, hashOf(f, base))
	if err != nil {
		f.Fatal(err)
	}
	deltaWire, err := d.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(deltaWire, baseWire)

	// A mismatched base from an unrelated app seeds the ErrBaseMismatch path.
	other, err := webapp.NewApp("fuzz", seedRegistry())
	if err != nil {
		f.Fatal(err)
	}
	otherSnap, err := Capture(other, Options{})
	if err != nil {
		f.Fatal(err)
	}
	otherWire, err := otherSnap.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(deltaWire, otherWire)
	f.Add([]byte(deltaHeader+"\nvar __appID = \"a\";\nvar __codeHash = \"b\";\nvar __baseHash = \"c\";\n__delete(\"x\");\n"), baseWire)

	f.Fuzz(func(t *testing.T, deltaBytes, baseBytes []byte) {
		dd, err := DecodeDelta(deltaBytes)
		if err != nil {
			return
		}
		bs, err := Decode(baseBytes)
		if err != nil {
			return
		}
		hashBefore, err := stateHash(bs)
		if err != nil {
			return
		}
		out, err := dd.Apply(bs, hashBefore)
		if err != nil {
			// The base hashed fine above, so the only legitimate failure
			// left is the typed base-identity mismatch.
			if !errors.Is(err, ErrBaseMismatch) {
				t.Errorf("apply failed with untyped error: %v", err)
			}
			return
		}
		if h, err := stateHash(bs); err != nil || h != hashBefore {
			t.Errorf("Apply mutated its base: hash %s -> %s (err %v)", hashBefore, h, err)
		}
		wire, err := out.Encode()
		if err != nil {
			t.Errorf("applied snapshot failed to encode: %v", err)
			return
		}
		back, err := Decode(wire)
		if err != nil {
			t.Errorf("applied snapshot failed to re-decode: %v", err)
			return
		}
		h1, err := stateHash(out)
		if err != nil {
			t.Errorf("applied snapshot failed to hash: %v", err)
			return
		}
		if h2, err := stateHash(back); err != nil || h1 != h2 {
			t.Errorf("apply result changed identity across a round trip: %s vs %s (err %v)", h1, h2, err)
		}
		out2, err := dd.Apply(bs, hashBefore)
		if err != nil {
			t.Errorf("second apply of the same delta failed: %v", err)
			return
		}
		if h3, err := stateHash(out2); err != nil || h3 != h1 {
			t.Errorf("apply is not deterministic: %s vs %s (err %v)", h1, h3, err)
		}
	})
}

func seedRegistry() *webapp.Registry {
	reg := webapp.NewRegistry("fuzz-app")
	reg.MustRegister("noop", func(*webapp.App, webapp.Event) error { return nil })
	return reg
}
