package snapshot

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"

	"websnap/internal/webapp"
)

// This file is the paper's stated future work (§VI) — "how to simplify the
// snapshot creation/transmission/restoration for future offloading using the
// data and code left at the server" — where it pays: the result direction. A
// Delta carries only the state that changed relative to a base snapshot both
// sides hold; the base of a result is the request that carried it, so every
// result comes home as what the handler changed, not the state it ran on.

// deltaHeader is the first line of an encoded delta.
const deltaHeader = "// websnap-delta v1"

// Delta is the difference between two snapshots of the same app.
type Delta struct {
	AppID    string
	CodeHash string
	// BaseHash names the snapshot this delta applies to, in terms producer
	// and consumer both hold: the identity of the request that carried the
	// base (protocol.SnapshotHeader.RequestBase). Callers supply it.
	BaseHash string
	// SetGlobals holds new or changed globals.
	SetGlobals map[string]webapp.Value
	// DelGlobals lists removed globals.
	DelGlobals []string
	// DOM is the full new tree when it changed, nil when unchanged.
	// (A finer node-level diff is possible; DOM trees are tiny next to
	// feature data, so whole-tree replacement keeps the format simple.)
	DOM *webapp.Node
	// BindingsChanged signals that Bindings replaces the base's set.
	BindingsChanged bool
	Bindings        []webapp.Binding
	// Pending always replaces the base's pending events.
	Pending []webapp.Event
}

// Diff computes cur − base and names the base baseID, the identity the
// consumer will present to Apply. Both snapshots must belong to the same app
// and code bundle. Models are ignored: deltas never carry them (they are
// already at the receiver). "Changed" is by bit pattern (webapp.Identical):
// the snapshot text keeps the sign of a zero, so a delta must too. Unchanged
// state is only compared, and the delta shares the changed values with cur,
// so it lasts as long as cur does.
func Diff(base, cur *Snapshot, baseID string) (*Delta, error) {
	if base.AppID != cur.AppID || base.CodeHash != cur.CodeHash {
		return nil, fmt.Errorf("snapshot: diff across apps (%s/%s vs %s/%s)",
			base.AppID, base.CodeHash, cur.AppID, cur.CodeHash)
	}
	d := &Delta{
		AppID:      cur.AppID,
		CodeHash:   cur.CodeHash,
		BaseHash:   baseID,
		SetGlobals: make(map[string]webapp.Value),
		Pending:    cur.Pending,
	}
	for name, v := range cur.Globals {
		if old, ok := base.Globals[name]; !ok || !webapp.Identical(old, v) {
			d.SetGlobals[name] = v
		}
	}
	for name := range base.Globals {
		if _, ok := cur.Globals[name]; !ok {
			d.DelGlobals = append(d.DelGlobals, name)
		}
	}
	sort.Strings(d.DelGlobals)
	if !base.DOM.Equal(cur.DOM) {
		d.DOM = cur.DOM
	}
	if !slices.Equal(base.Bindings, cur.Bindings) {
		d.BindingsChanged = true
		d.Bindings = cur.Bindings
	}
	return d, nil
}

// Patch writes the delta into app, which must hold the state d was diffed
// from: the base the caller knows as baseID. A delta that names another base
// is refused with ErrBaseMismatch, and one for other code with
// ErrCodeMismatch, before anything is written; so are bindings naming a
// handler app's code lacks. Then the changed globals are set, the removed
// ones deleted, and the DOM and bindings replaced when they changed; the
// pending events are replaced always. The app takes the delta's values as
// they are, not copies: patching costs the delta's size, not the state's,
// and d must not be used afterwards.
func (d *Delta) Patch(app *webapp.App, baseID string) error {
	if baseID != d.BaseHash {
		return fmt.Errorf("%w: delta base %s, app holds %s", ErrBaseMismatch, d.BaseHash, baseID)
	}
	if app.CodeHash() != d.CodeHash {
		return fmt.Errorf("%w: delta %s, app %s", ErrCodeMismatch, d.CodeHash, app.CodeHash())
	}
	if d.BindingsChanged {
		if err := app.ReplaceBindings(d.Bindings); err != nil {
			return fmt.Errorf("snapshot: restore bindings: %w", err)
		}
	}
	for name, v := range d.SetGlobals {
		if err := app.SetGlobal(name, v); err != nil {
			return err
		}
	}
	for _, name := range d.DelGlobals {
		app.DeleteGlobal(name)
	}
	if d.DOM != nil {
		app.ReplaceDOM(d.DOM)
	}
	app.ClearEvents()
	for _, ev := range d.Pending {
		app.DispatchEvent(ev)
	}
	return nil
}

// EncodeDiff encodes the delta from base to the app's current state —
// Diff(base, Capture(app), baseID), encoded — without capturing: the changed
// values are rendered from the app as they stand.
func EncodeDiff(base *Snapshot, app *webapp.App, baseID string) ([]byte, error) {
	cur, err := captureApp(app, Options{DefaultModelPolicy: ModelOmit}, true)
	if err != nil {
		return nil, err
	}
	d, err := Diff(base, cur, baseID)
	if err != nil {
		return nil, err
	}
	return d.Encode()
}

// Encode renders the delta in the same one-statement-per-line style as full
// snapshots:
//
//	// websnap-delta v1
//	var __appID = "...";
//	var __codeHash = "...";
//	var __baseHash = "...";
//	var feature = {"__f32__":"..."};
//	__delete("oldGlobal");
//	__dom({...});            (only when the DOM changed)
//	__bindings([{...}]);     (only when bindings changed)
//	__dispatch({...});
func (d *Delta) Encode() ([]byte, error) {
	for name, v := range d.SetGlobals {
		if err := checkGlobal(name, v); err != nil {
			return nil, fmt.Errorf("snapshot: delta global %q: %w", name, err)
		}
	}
	// The small statements first, as assemble wants them.
	var tail []byte
	for _, name := range d.DelGlobals {
		tail = appendCall(tail, "__delete", appendString(nil, name))
	}
	if d.DOM != nil {
		dom, err := webapp.MarshalDOM(d.DOM)
		if err != nil {
			return nil, err
		}
		tail = appendCall(tail, "__dom", dom)
	}
	var err error
	if d.BindingsChanged {
		if tail, err = appendJSONCall(tail, "__bindings", d.Bindings); err != nil {
			return nil, fmt.Errorf("snapshot: encode bindings: %w", err)
		}
	}
	if tail, err = appendPending(tail, d.Pending); err != nil {
		return nil, err
	}
	return assemble(nil, deltaHeader, []string{varAppID, d.AppID, varCodeHash, d.CodeHash, varBaseHash, d.BaseHash}, nil, d.SetGlobals, tail)
}

// DecodeDelta parses a delta produced by Encode. The result shares no
// memory with data.
func DecodeDelta(data []byte) (*Delta, error) {
	d := &Delta{SetGlobals: make(map[string]webapp.Value)}
	common := commonStatements{
		appID: &d.AppID, codeHash: &d.CodeHash, baseHash: &d.BaseHash,
		globals: d.SetGlobals, dom: &d.DOM, pending: &d.Pending,
	}
	err := decodeStatements(data, deltaHeader, func(line []byte) error {
		if done, err := common.decode(line); done {
			return err
		}
		if body, ok := callBody(line, "__delete"); ok {
			var name string
			if err := json.Unmarshal(body, &name); err != nil {
				return err
			}
			d.DelGlobals = append(d.DelGlobals, name)
			return nil
		}
		if body, ok := callBody(line, "__bindings"); ok {
			var bs []webapp.Binding
			if err := json.Unmarshal(body, &bs); err != nil {
				return err
			}
			d.BindingsChanged, d.Bindings = true, bs
			return nil
		}
		return fmt.Errorf("unrecognized statement %.40q", line)
	})
	if err != nil {
		return nil, err
	}
	if d.AppID == "" || d.CodeHash == "" || d.BaseHash == "" {
		return nil, fmt.Errorf("%w: delta missing identity fields", ErrCorrupt)
	}
	return d, nil
}
