// Package mlapp builds the DNN-based image-recognition web apps the paper
// evaluates: the Fig 2 full-inference app (load an image, click, run the
// whole DNN) and the Fig 5 partial-inference app (front() runs the first
// layers locally, dispatches "front_complete", and rear() — the offloaded
// part — finishes the DNN).
//
// Handlers read everything from app state (globals and loaded models), so
// the same two code bundles serve every model; client and edge server
// resolve them from the shared catalog by code hash.
package mlapp

import (
	"errors"
	"fmt"

	"websnap/internal/nn"
	"websnap/internal/tensor"
	"websnap/internal/webapp"
)

// Element IDs and event types used by the apps.
const (
	// ButtonID is the id of the app's single button.
	ButtonID = "btn"
	// ResultID is the id of the result paragraph in the DOM.
	ResultID = "result"
	// EventLoad loads an image into the app.
	EventLoad = "load"
	// EventClick starts inference.
	EventClick = "click"
	// EventFrontComplete is the custom event Fig 5's front() dispatches
	// after partial inference; offloading is triggered on it.
	EventFrontComplete = "front_complete"
)

// Well-known global variable names.
const (
	GlobalModelName = "modelName"
	GlobalLabels    = "labels"
	GlobalImage     = "image"
	GlobalFeature   = "feature"
	GlobalScores    = "scores"
	GlobalResult    = "resultText"
	// GlobalQuality holds the app's model quality tier; see
	// webapp.GlobalQuality for the snapshot semantics.
	GlobalQuality = webapp.GlobalQuality
)

// FrontSuffix and RearSuffix name the split model halves loaded into a
// partial-inference app.
const (
	FrontSuffix = "_front"
	RearSuffix  = "_rear"
)

// FullRegistry returns the Fig 2 code bundle: load_image and inference.
func FullRegistry() *webapp.Registry {
	reg := webapp.NewRegistry("mlapp-full")
	reg.MustRegister("load_image", handleLoadImage)
	reg.MustRegister("inference", handleInference)
	return reg
}

// PartialRegistry returns the Fig 5 code bundle: load_image, front, rear.
func PartialRegistry() *webapp.Registry {
	reg := webapp.NewRegistry("mlapp-partial")
	reg.MustRegister("load_image", handleLoadImage)
	reg.MustRegister("front", handleFront)
	reg.MustRegister("rear", handleRear)
	return reg
}

// NewFullApp builds a running Fig 2 app instance for the given model.
func NewFullApp(appID, modelName string, model *nn.Network, labels []string) (*webapp.App, error) {
	app, err := newBaseApp(appID, FullRegistry(), modelName, labels)
	if err != nil {
		return nil, err
	}
	app.LoadModel(modelName, model)
	if err := app.AddEventListener(ButtonID, EventClick, "inference"); err != nil {
		return nil, err
	}
	return app, nil
}

// NewPartialApp builds a running Fig 5 app instance with the model split
// after layer splitIndex: layers [0, splitIndex] execute in front() on the
// client, the rest in rear() at the server.
func NewPartialApp(appID, modelName string, model *nn.Network, splitIndex int, labels []string) (*webapp.App, error) {
	front, rear, err := model.Split(splitIndex)
	if err != nil {
		return nil, fmt.Errorf("mlapp: %w", err)
	}
	app, err := newBaseApp(appID, PartialRegistry(), modelName, labels)
	if err != nil {
		return nil, err
	}
	app.LoadModel(modelName+FrontSuffix, front)
	app.LoadModel(modelName+RearSuffix, rear)
	if err := app.AddEventListener(ButtonID, EventClick, "front"); err != nil {
		return nil, err
	}
	if err := app.AddEventListener(ButtonID, EventFrontComplete, "rear"); err != nil {
		return nil, err
	}
	return app, nil
}

func newBaseApp(appID string, reg *webapp.Registry, modelName string, labels []string) (*webapp.App, error) {
	app, err := webapp.NewApp(appID, reg)
	if err != nil {
		return nil, err
	}
	app.DOM().AppendChild(webapp.NewNode("button", ButtonID)).Text = "inference"
	app.DOM().AppendChild(webapp.NewNode("p", ResultID)).Text = "?"
	if err := app.SetGlobal(GlobalModelName, modelName); err != nil {
		return nil, err
	}
	lv := make([]webapp.Value, len(labels))
	for i, l := range labels {
		lv[i] = l
	}
	if err := app.SetGlobal(GlobalLabels, lv); err != nil {
		return nil, err
	}
	if err := app.AddEventListener(ButtonID, EventLoad, "load_image"); err != nil {
		return nil, err
	}
	return app, nil
}

// SyntheticImage generates a deterministic pseudo-random image of the given
// volume, standing in for the user-supplied photo.
func SyntheticImage(volume int, seed uint64) webapp.Float32Array {
	img := make(webapp.Float32Array, volume)
	s := seed*2654435761 + 12345
	for i := range img {
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		img[i] = float32(s%256) / 255
	}
	return img
}

// handleLoadImage stores the event payload (a Float32Array of pixels) into
// the image global, like Fig 2's image-loading event handler.
func handleLoadImage(app *webapp.App, ev webapp.Event) error {
	img, ok := ev.Payload.(webapp.Float32Array)
	if !ok {
		return fmt.Errorf("mlapp: load event payload is %T, want Float32Array", ev.Payload)
	}
	return app.SetGlobal(GlobalImage, img)
}

// handleInference is Fig 2's inference handler: run the whole DNN on the
// loaded image and add the result to the DOM.
func handleInference(app *webapp.App, ev webapp.Event) error {
	return infer(app, "", "inference")
}

// handleFront is Fig 5's front(): run the front part of the DNN locally,
// store the (denatured) feature data, drop the raw image so it never leaves
// the device, and dispatch front_complete.
func handleFront(app *webapp.App, ev webapp.Event) error {
	front, err := appModel(app, FrontSuffix)
	if err != nil {
		return err
	}
	in, err := globalTensor(app, GlobalImage, front.InputShape())
	if err != nil {
		return err
	}
	feat, err := front.ForwardPrec(in, Quality(app))
	if err != nil {
		return fmt.Errorf("mlapp: inference_front: %w", err)
	}
	if err := app.SetGlobal(GlobalFeature, webapp.Float32Array(feat.Data())); err != nil {
		return err
	}
	// Privacy: the original input must not appear in the offloaded
	// snapshot; only the feature data does (§III.B.2).
	if err := app.SetGlobal(GlobalImage, nil); err != nil {
		return err
	}
	app.DispatchEvent(webapp.Event{Target: ButtonID, Type: EventFrontComplete})
	return nil
}

// handleRear is Fig 5's rear(): finish the DNN from the feature data and
// add the result to the DOM.
func handleRear(app *webapp.App, ev webapp.Event) error {
	return infer(app, RearSuffix, "inference_rear")
}

// infer is the one inference routine behind both handlers: run the app's
// model (whole, or the rear half named by suffix) over its input at the
// app's quality tier and publish the result.
func infer(app *webapp.App, suffix, what string) error {
	model, err := appModel(app, suffix)
	if err != nil {
		return err
	}
	global := GlobalImage
	if suffix == RearSuffix {
		global = GlobalFeature
	}
	in, err := globalTensor(app, global, model.InputShape())
	if err != nil {
		return err
	}
	out, err := model.ForwardPrec(in, Quality(app))
	if err != nil {
		return fmt.Errorf("mlapp: %s: %w", what, err)
	}
	return publishResult(app, out)
}

// SetQuality selects the app's model quality tier. The empty string
// resets to the float32 default.
func SetQuality(app *webapp.App, prec nn.Precision) error {
	return webapp.SetQuality(app, prec)
}

// Quality reads the app's quality tier, defaulting to float32 when the
// global is missing, empty, or malformed.
func Quality(app *webapp.App) nn.Precision {
	return webapp.Quality(app)
}

func appModel(app *webapp.App, suffix string) (*nn.Network, error) {
	nameV, ok := app.Global(GlobalModelName)
	if !ok {
		return nil, errors.New("mlapp: modelName global missing")
	}
	name, ok := nameV.(string)
	if !ok {
		return nil, fmt.Errorf("mlapp: modelName global is %T", nameV)
	}
	model, ok := app.Model(name + suffix)
	if !ok {
		return nil, fmt.Errorf("mlapp: model %q not loaded", name+suffix)
	}
	return model, nil
}

func globalTensor(app *webapp.App, name string, shape []int) (*tensor.Tensor, error) {
	v, ok := app.Global(name)
	if !ok {
		return nil, fmt.Errorf("mlapp: global %q missing", name)
	}
	arr, ok := v.(webapp.Float32Array)
	if !ok {
		return nil, fmt.Errorf("mlapp: global %q is %T, want Float32Array", name, v)
	}
	t, err := tensor.FromSlice([]float32(arr), shape...)
	if err != nil {
		return nil, fmt.Errorf("mlapp: global %q: %w", name, err)
	}
	return t, nil
}

// publishResult writes the classification outcome into the DOM and globals,
// "adding the result text to the DOM-tree to update the screen".
func publishResult(app *webapp.App, out *tensor.Tensor) error {
	idx, _ := out.MaxIndex()
	label := fmt.Sprintf("class %d", idx)
	if lv, ok := app.Global(GlobalLabels); ok {
		if labels, ok := lv.([]webapp.Value); ok && idx >= 0 && idx < len(labels) {
			if s, ok := labels[idx].(string); ok {
				label = s
			}
		}
	}
	if node := app.DOM().Find(ResultID); node != nil {
		node.Text = label
	}
	if err := app.SetGlobal(GlobalResult, label); err != nil {
		return err
	}
	return app.SetGlobal(GlobalScores, webapp.Float32Array(out.Data()))
}

// Result returns the app's current result text, or "" if inference has not
// completed.
func Result(app *webapp.App) string {
	if v, ok := app.Global(GlobalResult); ok {
		if s, ok := v.(string); ok {
			return s
		}
	}
	return ""
}

// LoadImage dispatches the load event with the given pixels and runs it.
func LoadImage(app *webapp.App, img webapp.Float32Array) error {
	app.DispatchEvent(webapp.Event{Target: ButtonID, Type: EventLoad, Payload: img})
	if _, err := app.Run(1); err != nil {
		return err
	}
	return nil
}
