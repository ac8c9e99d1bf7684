// Package transfer implements the six baselines the paper compares
// TransER against (Section 5.1.3): Naive, DTAL*, DR, LocIT*, TCA, and
// CORAL — plus the shared Task abstraction they all consume and a
// TransER adapter so the experiment harness can treat every method
// uniformly.
package transfer

import (
	"errors"
	"fmt"

	"transer/internal/dataset"
	"transer/internal/ml"
	"transer/internal/obs"
)

// Task bundles everything a transfer method may need for one
// source→target run: the feature matrices (all methods), and the
// underlying databases and candidate pairs (the DR baseline re-embeds
// raw attribute values).
type Task struct {
	// XS, YS are the labelled source feature matrix.
	XS [][]float64
	YS []int
	// XT is the unlabelled target feature matrix.
	XT [][]float64

	// SourceA/SourceB with SourcePairs and TargetA/TargetB with
	// TargetPairs identify the raw record pairs behind the rows of XS
	// and XT. They may be nil for methods that work purely in feature
	// space.
	SourceA, SourceB *dataset.Database
	TargetA, TargetB *dataset.Database
	SourcePairs      []dataset.Pair
	TargetPairs      []dataset.Pair
}

// Validate checks the feature-space invariants shared by all methods.
func (t *Task) Validate() error {
	if len(t.XS) == 0 {
		return errors.New("transfer: empty source feature matrix")
	}
	if len(t.XS) != len(t.YS) {
		return fmt.Errorf("transfer: %d source rows but %d labels", len(t.XS), len(t.YS))
	}
	if len(t.XT) == 0 {
		return errors.New("transfer: empty target feature matrix")
	}
	m := len(t.XS[0])
	for i, r := range t.XS {
		if len(r) != m {
			return fmt.Errorf("transfer: ragged source row %d", i)
		}
	}
	for i, r := range t.XT {
		if len(r) != m {
			return fmt.Errorf("transfer: target row %d has %d features, want %d", i, len(r), m)
		}
	}
	return nil
}

// Dim returns the feature dimensionality m.
func (t *Task) Dim() int {
	if len(t.XS) == 0 {
		return 0
	}
	return len(t.XS[0])
}

// Result is a transfer method's output on the target pairs.
type Result struct {
	// Labels are the predicted target labels (1 = match).
	Labels []int
	// Proba are match probabilities aligned with Labels.
	Proba []float64
	// Classifier is the trained classifier behind Proba, when the
	// method exposes one (TransER does; baselines with built-in or
	// transformed-feature-space models leave it nil). It enables model
	// export via internal/model.
	Classifier ml.Classifier
}

// Method is one transfer approach usable by the experiment harness.
//
// A method runs in two stages. Prepare does the work that does not
// depend on the downstream classifier (a learned projection, instance
// weights or a selection) once per task; the Prepared it returns then
// trains and predicts once per classifier. Run is the two stages back
// to back, so a Prepare followed by any number of Fits gives, fit for
// fit, exactly the results of as many Runs.
type Method interface {
	// Name is the display name used in result tables.
	Name() string
	// Prepare validates the task and does the method's
	// classifier-independent work on it. The method's stage spans nest
	// under sp, which may be nil.
	Prepare(t *Task, sp *obs.Span) (Prepared, error)
	// Run labels the target instances of the task: Prepare, then one
	// Fit with factory. Methods with built-in models (DTAL*) ignore
	// the factory.
	Run(t *Task, factory ml.Factory) (*Result, error)
}

// Prepared is a method's classifier-independent state for one task.
// It is read-only: Fit may be called any number of times, also
// concurrently, and each call returns fresh result slices.
type Prepared interface {
	// Fit trains the downstream ER classifier the factory supplies
	// and labels the target, recording its spans under sp (which may
	// be nil).
	Fit(factory ml.Factory, sp *obs.Span) (*Result, error)
}

// run is the one Run every method shares: Prepare, then Fit, both
// recording under sp.
func run(m Method, t *Task, factory ml.Factory, sp *obs.Span) (*Result, error) {
	p, err := m.Prepare(t, sp)
	if err != nil {
		return nil, err
	}
	return p.Fit(factory, sp)
}

// trainingSet is the Prepared of every baseline that ends in one
// plain classifier: the (transformed, weighted or selected) source
// rows it trains on and the target rows it labels.
type trainingSet struct {
	x  [][]float64
	y  []int
	xt [][]float64
}

// Fit implements Prepared.
func (s trainingSet) Fit(factory ml.Factory, sp *obs.Span) (*Result, error) {
	fit := sp.Child("fit")
	clf, err := ml.FitWithFallback(factory, s.x, s.y)
	fit.End()
	if err != nil {
		return nil, err
	}
	predict := sp.Child("predict")
	defer predict.End()
	return resultFromProba(clf.PredictProba(s.xt)), nil
}

// resultFromProba converts probabilities to a Result with 0.5
// thresholding.
func resultFromProba(proba []float64) *Result {
	return &Result{Labels: ml.Labels(proba, 0.5), Proba: proba}
}

// allZero is the Prepared of a method whose instance selection
// collapsed: every fit labels all n target rows a non-match, mirroring
// LocIT*'s 0.00 entries in the paper's Table 2.
type allZero int

// Fit implements Prepared.
func (n allZero) Fit(ml.Factory, *obs.Span) (*Result, error) {
	return &Result{Labels: make([]int, n), Proba: make([]float64, n)}, nil
}
