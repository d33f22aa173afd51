package snapshot_test

import (
	"fmt"

	"websnap/internal/snapshot"
	"websnap/internal/webapp"
)

// Example demonstrates the paper's core loop in miniature: capture a
// running app's execution state, ship it as text, restore it elsewhere,
// and continue execution from exactly where it stopped.
func Example() {
	// App code: one handler that increments a counter.
	reg := webapp.NewRegistry("counter-app")
	reg.MustRegister("increment", func(app *webapp.App, ev webapp.Event) error {
		v, _ := app.Global("count")
		n, _ := v.(float64)
		return app.SetGlobal("count", n+1)
	})

	// The "client": run the app to count = 1, then capture just before
	// the next increment.
	app, _ := webapp.NewApp("instance-1", reg)
	_ = app.SetGlobal("count", 0)
	_ = app.AddEventListener("btn", "click", "increment")
	app.DispatchEvent(webapp.Event{Target: "btn", Type: "click"})
	_, _ = app.Run(1)

	snap, _ := snapshot.Capture(app, snapshot.Options{
		PendingEvent: &webapp.Event{Target: "btn", Type: "click"},
	})
	wire, _ := snap.Encode() // the snapshot is a textual program

	// The "edge server": decode, restore, resume.
	decoded, _ := snapshot.Decode(wire)
	restored, _ := snapshot.Restore(decoded, reg, snapshot.RestoreOptions{})
	_, _ = restored.Run(1) // executes the pending click there

	v, _ := restored.Global("count")
	fmt.Println("count after offloaded step:", v)
	// Output: count after offloaded step: 2
}

// ExampleDiff shows the §VI delta mechanism: only changed state travels.
func ExampleDiff() {
	reg := webapp.NewRegistry("delta-app")
	reg.MustRegister("noop", func(*webapp.App, webapp.Event) error { return nil })
	app, _ := webapp.NewApp("instance", reg)
	_ = app.SetGlobal("big", make(webapp.Float32Array, 10000))
	_ = app.SetGlobal("small", 1.0)

	base, _ := snapshot.Capture(app, snapshot.Options{})
	_ = app.SetGlobal("small", 2.0) // only this changes
	cur, _ := snapshot.Capture(app, snapshot.Options{})

	baseHash, _ := base.Hash() // how the receiver will know the base
	delta, _ := snapshot.Diff(base, cur, baseHash)
	fullWire, _ := cur.Encode()
	deltaWire, _ := delta.Encode()
	fmt.Println("delta carries globals:", len(delta.SetGlobals))
	fmt.Println("delta is smaller:", len(deltaWire) < len(fullWire)/10)
	// Output:
	// delta carries globals: 1
	// delta is smaller: true
}
