// Package ml defines the classifier abstraction shared by the ER
// pipeline, the TransER framework and all transfer baselines, plus the
// registry of the four traditional classifiers the paper averages over
// (SVM, random forest, logistic regression, decision tree — Section
// 5.1.1).
//
// All classifiers are binary (match = 1, non-match = 0), consume dense
// feature matrices with values in [0, 1], and expose calibrated-ish
// match probabilities: the pseudo-label confidence scores of TransER's
// GEN phase are exactly these probabilities.
package ml

import (
	"encoding/json"
	"errors"
	"fmt"

	"transer/internal/parallel"
)

// Classifier is a binary probabilistic classifier.
type Classifier interface {
	// Fit trains on the feature matrix x with labels y in {0, 1}.
	Fit(x [][]float64, y []int) error
	// PredictProba returns P(label = 1 | row) for each row of x. It
	// must only be called after a successful Fit. Implementations must
	// compute rows independently and must not mutate the classifier,
	// so that disjoint row chunks can be predicted concurrently (see
	// ParallelProba).
	PredictProba(x [][]float64) []float64
}

// Factory creates a fresh, untrained classifier. TransER trains two
// classifiers per run (GEN and TCL), so it takes factories rather than
// instances.
type Factory func() Classifier

// ParamClassifier is a Classifier whose learned state can be exported
// and re-imported, the surface internal/model builds versioned model
// artifacts on. The contract is exactness: for a trained classifier c,
// a fresh instance restored with SetParams(c.Params()) must predict
// byte-identically to c on every input.
type ParamClassifier interface {
	Classifier
	// ClassifierType returns the stable identifier stored in model
	// artifacts ("logreg", "forest", ...). It never changes for a
	// given implementation once released.
	ClassifierType() string
	// Params serialises the learned state (plus whatever configuration
	// prediction needs) as a JSON document. It returns ErrNotTrained
	// when called before a successful Fit.
	Params() ([]byte, error)
	// SetParams restores a previously exported state into this
	// instance, replacing any trained state. After SetParams the
	// classifier predicts exactly as the exporting instance did.
	SetParams([]byte) error
	// InputDim returns the feature width the learned state reads, or 0
	// when it reads no features. Model loading checks it against the
	// artifact's comparison scheme.
	InputDim() int
}

// ErrNotTrained is returned by Params when the classifier has not been
// fitted (there is no learned state to export).
var ErrNotTrained = errors.New("ml: classifier is not trained")

// Named pairs a factory with a display name for experiment tables.
type Named struct {
	Name string
	New  Factory
}

// ErrNoTrainingData is returned by Fit when the training set is empty.
var ErrNoTrainingData = errors.New("ml: no training data")

// ErrSingleClass is returned by Fit when all training labels are
// identical; callers may fall back to a constant classifier.
var ErrSingleClass = errors.New("ml: training data contains a single class")

// ValidateTrainingData performs the shared Fit precondition checks and
// returns the feature dimensionality.
func ValidateTrainingData(x [][]float64, y []int) (dim int, err error) {
	if len(x) == 0 {
		return 0, ErrNoTrainingData
	}
	if len(x) != len(y) {
		return 0, fmt.Errorf("ml: %d rows but %d labels", len(x), len(y))
	}
	dim = len(x[0])
	for i, row := range x {
		if len(row) != dim {
			return 0, fmt.Errorf("ml: ragged feature matrix: row %d has %d features, want %d", i, len(row), dim)
		}
	}
	seen0, seen1 := false, false
	for i, l := range y {
		switch l {
		case 0:
			seen0 = true
		case 1:
			seen1 = true
		default:
			return 0, fmt.Errorf("ml: label %d at row %d is not binary", l, i)
		}
	}
	if !seen0 || !seen1 {
		return dim, ErrSingleClass
	}
	return dim, nil
}

// Labels converts match probabilities into hard labels with the given
// decision threshold (0.5 for all experiments in this repository).
func Labels(proba []float64, threshold float64) []int {
	out := make([]int, len(proba))
	for i, p := range proba {
		if p >= threshold {
			out[i] = 1
		}
	}
	return out
}

// Confidence converts a match probability into the confidence of the
// predicted label: max(p, 1-p). This is the score Z^P of Algorithm 1.
func Confidence(p float64) float64 {
	if p >= 0.5 {
		return p
	}
	return 1 - p
}

// Constant is a trivial classifier that always predicts the same
// probability; it is the fallback when training data collapses to a
// single class.
type Constant struct{ P float64 }

// Fit accepts any input.
func (c *Constant) Fit(x [][]float64, y []int) error { return nil }

// PredictProba returns the constant probability for every row.
func (c *Constant) PredictProba(x [][]float64) []float64 {
	out := make([]float64, len(x))
	for i := range out {
		out[i] = c.P
	}
	return out
}

// ClassifierType implements ParamClassifier.
func (c *Constant) ClassifierType() string { return "constant" }

// InputDim implements ParamClassifier: a Constant reads no features.
func (c *Constant) InputDim() int { return 0 }

// constantParams is the serialised state of a Constant.
type constantParams struct {
	P float64 `json:"p"`
}

// Params implements ParamClassifier. A Constant is always "trained":
// its probability is its entire state.
func (c *Constant) Params() ([]byte, error) {
	return json.Marshal(constantParams{P: c.P})
}

// SetParams implements ParamClassifier.
func (c *Constant) SetParams(b []byte) error {
	var p constantParams
	if err := json.Unmarshal(b, &p); err != nil {
		return fmt.Errorf("ml: constant params: %w", err)
	}
	c.P = p.P
	return nil
}

// parallelProbaMinRows is the batch size below which chunked
// prediction is not worth the goroutine dispatch.
const parallelProbaMinRows = 512

// ParallelProba evaluates c.PredictProba over contiguous row chunks of
// x on at most workers goroutines (0 means GOMAXPROCS) and stitches
// the chunk outputs back together by index. Because PredictProba
// computes rows independently (the interface contract), the result is
// bitwise identical to a single serial call for every worker count.
func ParallelProba(c Classifier, x [][]float64, workers int) []float64 {
	w := parallel.Workers(workers)
	if w <= 1 || len(x) < parallelProbaMinRows {
		return c.PredictProba(x)
	}
	out := make([]float64, len(x))
	parallel.ForEachChunk(w, len(x), func(lo, hi int) {
		copy(out[lo:hi], c.PredictProba(x[lo:hi]))
	})
	return out
}

// FitWithFallback trains a fresh classifier from the factory; if the
// training data is single-class it falls back to a Constant classifier
// predicting that class, mirroring scikit-learn pipelines that keep
// running when a fold degenerates.
func FitWithFallback(f Factory, x [][]float64, y []int) (Classifier, error) {
	c := f()
	err := c.Fit(x, y)
	if err == nil {
		return c, nil
	}
	if errors.Is(err, ErrSingleClass) {
		p := 0.0
		if len(y) > 0 && y[0] == 1 {
			p = 1.0
		}
		return &Constant{P: p}, nil
	}
	return nil, err
}
