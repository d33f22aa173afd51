// Package snapshot implements the paper's core mechanism: saving the
// current execution state of a web app in the form of another web app (the
// *snapshot*), and restoring it — on any browser runtime — to continue
// execution from the point where it was saved.
//
// A snapshot is a textual program (one declaration per line, JS-like). The
// paper's finding (§IV.B, Fig. 8) is that typed-array feature data therefore
// serializes as text, and that this is what makes feature size the dominant
// transmission cost in partial inference: 9–10.5 bytes per value as decimal
// digits. This engine's answer keeps the text program and shrinks the
// array inside it: a Float32Array is written as base64 of its little-endian
// float32 bits — 16/3 bytes per value (Float32TextBytesPerValue), bit-exact
// — as a model's weights always were. Features still dominate a partial
// inference's transfer; they cost half of what they did. See value.go.
//
// Two size optimizations from §III.B are implemented:
//   - model exclusion: a model reaches the edge server once, as a pre-send
//     ahead of the snapshot; snapshots carry only its descriptor, never its
//     weights;
//   - rear-only models: for partial inference, the front part of the DNN is
//     never shipped, which both shrinks the transfer and denies the server
//     the layers needed to invert the feature data (privacy, §III.B.2).
package snapshot

import (
	"bytes"
	"errors"
	"fmt"

	"websnap/internal/nn"
	"websnap/internal/webapp"
)

// Errors reported by capture/restore.
var (
	ErrCodeMismatch     = errors.New("snapshot: code hash does not match registry")
	ErrModelUnavailable = errors.New("snapshot: model not pre-sent")
	ErrReservedKey      = errors.New("snapshot: reserved key or global name")
	ErrCorrupt          = errors.New("snapshot: corrupt encoding")
	// ErrBaseMismatch is returned when a delta is applied to a different
	// base snapshot than it was computed against.
	ErrBaseMismatch = errors.New("snapshot: delta base mismatch")
)

// ModelPolicy controls how much of a loaded model a captured snapshot
// carries.
type ModelPolicy int

// Model policies.
const (
	// ModelSpecOnly includes only the descriptor; the receiver resolves
	// weights from its pre-sent model store.
	ModelSpecOnly ModelPolicy = iota
	// ModelOmit drops the model from the snapshot entirely — used for
	// result snapshots returning to the client, which already has it.
	ModelOmit
)

// Options configures Capture.
type Options struct {
	// DefaultModelPolicy applies to models not listed in ModelPolicies.
	// The zero value is ModelSpecOnly.
	DefaultModelPolicy ModelPolicy
	// ModelPolicies overrides the policy per model name.
	ModelPolicies map[string]ModelPolicy
	// PendingEvent, if non-nil, is recorded for re-dispatch at restore
	// time: "there is also the code to dispatch the event again at the
	// server" (§III.A). Typically the event whose handler is offloaded.
	PendingEvent *webapp.Event
}

// ModelState is one model carried by a snapshot.
type ModelState struct {
	Name string
	// Spec is the model's descriptor as nn.EncodeSpec renders it — the
	// canonical bytes a spec-only reference is checked against at restore.
	// A captured state shares them with the network; neither side writes
	// to them.
	Spec []byte
}

// Snapshot is the captured execution state of a web app. Encode renders it
// as the textual snapshot app; Restore re-creates a running App from it.
type Snapshot struct {
	AppID    string
	CodeHash string
	Globals  map[string]webapp.Value
	DOM      *webapp.Node
	Bindings []webapp.Binding
	Models   []ModelState
	// Pending holds the events to re-dispatch on restore, in order.
	Pending []webapp.Event
}

// Capture saves the app's current execution state. The app is not modified;
// all captured state is deep-copied.
func Capture(app *webapp.App, opts Options) (*Snapshot, error) {
	globals := app.Globals()
	for name, v := range globals {
		if err := checkGlobal(name, v); err != nil {
			return nil, fmt.Errorf("global %q: %w", name, err)
		}
	}
	s := &Snapshot{
		AppID:    app.ID(),
		CodeHash: app.CodeHash(),
		Globals:  globals,
		DOM:      app.DOM().Clone(),
		Bindings: app.Bindings(),
	}
	for _, ev := range app.PendingEvents() {
		s.Pending = append(s.Pending, webapp.Event{
			Target: ev.Target, Type: ev.Type, Payload: webapp.DeepCopy(ev.Payload),
		})
	}
	if opts.PendingEvent != nil {
		ev := *opts.PendingEvent
		ev.Payload = webapp.DeepCopy(ev.Payload)
		s.Pending = append(s.Pending, ev)
	}
	for _, name := range app.ModelNames() {
		policy := opts.DefaultModelPolicy
		if p, ok := opts.ModelPolicies[name]; ok {
			policy = p
		}
		if policy == ModelOmit {
			continue
		}
		net, _ := app.Model(name)
		spec, err := net.SpecJSON()
		if err != nil {
			return nil, fmt.Errorf("snapshot: model %q: %w", name, err)
		}
		s.Models = append(s.Models, ModelState{Name: name, Spec: spec})
	}
	return s, nil
}

// ModelResolver supplies pre-sent models at restore time (the edge server's
// model store). It returns the stored network for name, or false.
type ModelResolver interface {
	ResolveModel(name string) (*nn.Network, bool)
}

// ResolverFunc adapts a function to the ModelResolver interface.
type ResolverFunc func(name string) (*nn.Network, bool)

// ResolveModel implements ModelResolver.
func (f ResolverFunc) ResolveModel(name string) (*nn.Network, bool) { return f(name) }

// RestoreOptions configures Restore.
type RestoreOptions struct {
	// Models resolves the pre-sent networks the snapshot's models name.
	// May be nil if the snapshot carries no model.
	Models ModelResolver
}

// Restore re-creates a running app from the snapshot: execution state is
// restored exactly, models are rebuilt or resolved, and pending events are
// re-dispatched so that a subsequent Step continues execution from the
// capture point.
func Restore(s *Snapshot, registry *webapp.Registry, opts RestoreOptions) (*webapp.App, error) {
	if registry.CodeHash() != s.CodeHash {
		return nil, fmt.Errorf("%w: snapshot %s, registry %s (bundle %q)",
			ErrCodeMismatch, s.CodeHash, registry.CodeHash(), registry.Name())
	}
	app, err := webapp.NewApp(s.AppID, registry)
	if err != nil {
		return nil, err
	}
	if err := s.ApplyTo(app, opts); err != nil {
		return nil, err
	}
	return app, nil
}

// ApplyTo restores the snapshot's execution state into an existing app —
// the client side of the return path: the result snapshot from the edge
// server (rebuilt by patching the result delta into the snapshot that was
// sent) is "run" on the client's browser to continue the app. Models the
// snapshot omits remain as loaded in app; models it names are resolved and
// replace the loaded ones.
func (s *Snapshot) ApplyTo(app *webapp.App, opts RestoreOptions) error {
	if app.CodeHash() != s.CodeHash {
		return fmt.Errorf("%w: snapshot %s, app %s", ErrCodeMismatch, s.CodeHash, app.CodeHash())
	}
	app.ReplaceGlobals(s.Globals)
	app.ReplaceDOM(s.DOM.Clone())
	if err := app.ReplaceBindings(s.Bindings); err != nil {
		return fmt.Errorf("snapshot: restore bindings: %w", err)
	}
	for _, ms := range s.Models {
		net, err := restoreModel(ms, opts.Models)
		if err != nil {
			return err
		}
		app.LoadModel(ms.Name, net)
	}
	app.ClearEvents()
	for _, ev := range s.Pending {
		app.DispatchEvent(ev)
	}
	return nil
}

// restoreModel resolves a model reference — which must name a pre-sent
// network of exactly the declared architecture: a stored model whose
// descriptor differs from the reference's by a byte is refused, never run in
// its place.
func restoreModel(ms ModelState, resolver ModelResolver) (*nn.Network, error) {
	var net *nn.Network
	ok := resolver != nil
	if ok {
		net, ok = resolver.ResolveModel(ms.Name)
	}
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrModelUnavailable, ms.Name)
	}
	if spec, err := net.SpecJSON(); err != nil || !bytes.Equal(spec, ms.Spec) {
		return nil, fmt.Errorf("%w: %q: stored model's architecture differs from the snapshot's", ErrModelUnavailable, ms.Name)
	}
	return net, nil
}
