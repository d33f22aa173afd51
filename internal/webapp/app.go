package webapp

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"

	"websnap/internal/nn"
)

// Errors returned by the runtime.
var (
	ErrUnknownHandler = errors.New("webapp: handler not registered")
	ErrQueueEmpty     = errors.New("webapp: event queue empty")
)

// Event is a DOM event: a type ("click", "front_complete", ...) dispatched
// at a target element, optionally carrying a payload value.
type Event struct {
	Target  string `json:"target"`
	Type    string `json:"type"`
	Payload Value  `json:"payload,omitempty"`
}

// HandlerFunc is the body of an event handler: the app's "JavaScript". It
// may read and write globals, mutate the DOM, run model inference, and
// dispatch further events.
type HandlerFunc func(app *App, ev Event) error

// Registry is an app's code bundle: named handler functions. Its content
// hash is the app's code identity; a snapshot records the hash and is only
// restorable against a registry with the same hash (the stand-in for the
// paper's snapshots carrying the JavaScript functions verbatim).
type Registry struct {
	name     string
	handlers map[string]HandlerFunc
}

// NewRegistry creates an empty code bundle named name.
func NewRegistry(name string) *Registry {
	return &Registry{
		name:     name,
		handlers: make(map[string]HandlerFunc),
	}
}

// Register adds a handler under the given name. Re-registering a name is an
// error: code bundles are immutable app code.
func (r *Registry) Register(name string, fn HandlerFunc) error {
	if fn == nil {
		return fmt.Errorf("webapp: register %q: nil handler", name)
	}
	if _, dup := r.handlers[name]; dup {
		return fmt.Errorf("webapp: register %q: already registered", name)
	}
	r.handlers[name] = fn
	return nil
}

// MustRegister is Register but panics on error; for app-definition tables.
func (r *Registry) MustRegister(name string, fn HandlerFunc) {
	if err := r.Register(name, fn); err != nil {
		panic(err)
	}
}

// Handler looks up a handler by name.
func (r *Registry) Handler(name string) (HandlerFunc, bool) {
	fn, ok := r.handlers[name]
	return fn, ok
}

// Name returns the bundle's name.
func (r *Registry) Name() string { return r.name }

// CodeHash returns the bundle's identity: a hash over its name and sorted
// handler names.
func (r *Registry) CodeHash() string {
	h := sha256.New()
	h.Write([]byte(r.name))
	for _, k := range sortedKeys(r.handlers) {
		h.Write([]byte{0})
		h.Write([]byte(k))
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// Binding wires an (element, event type) pair to a named handler, i.e.
// addEventListener.
type Binding struct {
	Target  string `json:"target"`
	Event   string `json:"event"`
	Handler string `json:"handler"`
}

// App is a running web app: code (registry) plus mutable execution state
// (globals, DOM, bindings, loaded models, pending events). It is
// single-threaded, like a browser page; callers must not share an App
// across goroutines without external synchronization.
type App struct {
	id       string
	registry *Registry
	globals  map[string]Value
	dom      *Node
	bindings []Binding
	queue    []Event
	models   map[string]*nn.Network
}

// NewApp creates an app instance running the given code bundle, with an
// empty "<body>" DOM root.
func NewApp(id string, registry *Registry) (*App, error) {
	if registry == nil {
		return nil, errors.New("webapp: nil registry")
	}
	return &App{
		id:       id,
		registry: registry,
		globals:  make(map[string]Value),
		dom:      NewNode("body", "root"),
		models:   make(map[string]*nn.Network),
	}, nil
}

// ID returns the app instance identity.
func (a *App) ID() string { return a.id }

// Registry returns the app's code bundle.
func (a *App) Registry() *Registry { return a.registry }

// CodeHash returns the app's code identity.
func (a *App) CodeHash() string { return a.registry.CodeHash() }

// SetGlobal assigns a global variable after normalizing v.
func (a *App) SetGlobal(name string, v Value) error {
	n, err := Normalize(v)
	if err != nil {
		return fmt.Errorf("webapp: set global %q: %w", name, err)
	}
	a.globals[name] = n
	return nil
}

// DeleteGlobal removes a global variable.
func (a *App) DeleteGlobal(name string) { delete(a.globals, name) }

// Global reads a global variable.
func (a *App) Global(name string) (Value, bool) {
	v, ok := a.globals[name]
	return v, ok
}

// GlobalNames returns the global variable names in sorted order.
func (a *App) GlobalNames() []string { return sortedKeys(a.globals) }

// Globals returns a deep copy of all globals, for snapshot capture.
func (a *App) Globals() map[string]Value {
	out := make(map[string]Value, len(a.globals))
	for k, v := range a.globals {
		out[k] = DeepCopy(v)
	}
	return out
}

// ReplaceGlobals substitutes the whole global heap (snapshot restore).
func (a *App) ReplaceGlobals(globals map[string]Value) {
	a.globals = make(map[string]Value, len(globals))
	for k, v := range globals {
		a.globals[k] = DeepCopy(v)
	}
}

// DOM returns the root of the app's DOM tree (live, not a copy).
func (a *App) DOM() *Node { return a.dom }

// ReplaceDOM substitutes the DOM tree (snapshot restore).
func (a *App) ReplaceDOM(root *Node) { a.dom = root }

// AddEventListener binds a handler name to (target, event type). The
// handler must exist in the app's registry.
func (a *App) AddEventListener(target, eventType, handler string) error {
	if _, ok := a.registry.Handler(handler); !ok {
		return fmt.Errorf("%w: %q", ErrUnknownHandler, handler)
	}
	a.bindings = append(a.bindings, Binding{Target: target, Event: eventType, Handler: handler})
	return nil
}

// Bindings returns a copy of the app's event bindings.
func (a *App) Bindings() []Binding {
	out := make([]Binding, len(a.bindings))
	copy(out, a.bindings)
	return out
}

// ReplaceBindings substitutes the bindings (snapshot restore). Handlers are
// validated against the registry.
func (a *App) ReplaceBindings(bindings []Binding) error {
	for _, b := range bindings {
		if _, ok := a.registry.Handler(b.Handler); !ok {
			return fmt.Errorf("%w: %q", ErrUnknownHandler, b.Handler)
		}
	}
	a.bindings = make([]Binding, len(bindings))
	copy(a.bindings, bindings)
	return nil
}

// handlersFor resolves every handler bound to an event, in registration
// order — like a browser, all matching listeners fire.
func (a *App) handlersFor(ev Event) []HandlerFunc {
	var fns []HandlerFunc
	for _, b := range a.bindings {
		if b.Target == ev.Target && b.Event == ev.Type {
			if fn, ok := a.registry.Handler(b.Handler); ok {
				fns = append(fns, fn)
			}
		}
	}
	return fns
}

// DispatchEvent enqueues an event for the event loop. The payload is
// normalized to canonical value form when possible so that an event
// captured into a snapshot round-trips exactly; payloads outside the value
// universe are kept as-is (they work locally but cannot be offloaded).
func (a *App) DispatchEvent(ev Event) {
	if ev.Payload != nil {
		if n, err := Normalize(ev.Payload); err == nil {
			ev.Payload = n
		}
	}
	a.queue = append(a.queue, ev)
}

// PendingEvents returns a copy of the queued events.
func (a *App) PendingEvents() []Event {
	out := make([]Event, len(a.queue))
	copy(out, a.queue)
	return out
}

// PeekEvent returns the next queued event without removing it.
func (a *App) PeekEvent() (Event, bool) {
	if len(a.queue) == 0 {
		return Event{}, false
	}
	return a.queue[0], true
}

// PopEvent removes and returns the next queued event.
func (a *App) PopEvent() (Event, bool) {
	if len(a.queue) == 0 {
		return Event{}, false
	}
	ev := a.queue[0]
	// Clear the slot: the backing array outlives the reslice, and a popped
	// load event's payload is the whole image.
	a.queue[0] = Event{}
	a.queue = a.queue[1:]
	return ev, true
}

// ClearEvents drops all queued events (snapshot restore).
func (a *App) ClearEvents() { a.queue = nil }

// Handle runs every handler bound to ev (in registration order) without
// touching the queue — the body of one event-loop turn, for callers that
// already popped the event. Events with no binding are dropped silently, as
// in a browser.
func (a *App) Handle(ev Event) error {
	for _, fn := range a.handlersFor(ev) {
		if err := fn(a, ev); err != nil {
			return fmt.Errorf("webapp: handler for %s@%s: %w", ev.Type, ev.Target, err)
		}
	}
	return nil
}

// Step pops the next event and handles it, like one turn of the browser
// event loop. Returns ErrQueueEmpty if nothing is pending.
func (a *App) Step() error {
	ev, ok := a.PopEvent()
	if !ok {
		return ErrQueueEmpty
	}
	return a.Handle(ev)
}

// Run steps the event loop until the queue drains or maxSteps handlers have
// run, returning the number of handler invocations.
func (a *App) Run(maxSteps int) (int, error) {
	steps := 0
	for steps < maxSteps && len(a.queue) > 0 {
		if err := a.Step(); err != nil {
			return steps, err
		}
		steps++
	}
	if len(a.queue) > 0 {
		return steps, fmt.Errorf("webapp: app %q did not quiesce within %d steps", a.id, maxSteps)
	}
	return steps, nil
}

// LoadModel attaches a DNN model under the given name, like Caffe.js
// loading a pre-trained network into the page.
func (a *App) LoadModel(name string, net *nn.Network) {
	a.models[name] = net
}

// Model returns the loaded model by name.
func (a *App) Model(name string) (*nn.Network, bool) {
	m, ok := a.models[name]
	return m, ok
}

// ModelNames returns loaded model names in sorted order.
func (a *App) ModelNames() []string { return sortedKeys(a.models) }
