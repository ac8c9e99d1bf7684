// Package svm implements a linear support vector machine trained with
// the Pegasos primal sub-gradient method, followed by Platt scaling so
// decision values become match probabilities — the same recipe
// scikit-learn's probability=True SVC approximates for the linear case.
package svm

import (
	"encoding/json"
	"fmt"

	"transer/internal/linalg"
	"transer/internal/ml"
	"transer/internal/seeded"
)

// Config holds what varies between SVMs; the hyper-parameters are
// the constants below.
type Config struct {
	// Seed drives the sampling order.
	Seed int64
}

const (
	// lambda is the Pegasos regularisation strength.
	lambda = 1e-3
	// epochs of passes over the data.
	epochs = 40
	// plattIterations of the probability calibration fit.
	plattIterations = 2000
)

// SVM is a linear SVM with Platt-scaled probability outputs.
type SVM struct {
	cfg  Config
	w    []float64
	bias float64
	// Platt sigmoid parameters: p = sigmoid(a*score + b).
	plattA, plattB float64
}

// New creates an untrained SVM.
func New(cfg Config) *SVM { return &SVM{cfg: cfg} }

// Factory returns an ml.Factory producing SVMs with this config.
func Factory(cfg Config) ml.Factory {
	return func() ml.Classifier { return New(cfg) }
}

// Fit trains the margin with Pegasos, then calibrates probabilities
// with Platt scaling on the training scores.
func (s *SVM) Fit(x [][]float64, y []int) error {
	dim, err := ml.ValidateTrainingData(x, y)
	if err != nil {
		return err
	}
	s.w = make([]float64, dim)
	s.bias = 0
	rng := seeded.New(s.cfg.Seed)
	n := len(x)
	// Inverse-frequency class weights balance the hinge updates, which
	// keeps the SVM from collapsing to the majority class on the
	// heavily imbalanced pair sets ER produces.
	w1, w0 := 1.0, 1.0
	ones := 0
	for _, v := range y {
		ones += v
	}
	if ones > 0 && ones < n {
		w1 = float64(n) / (2 * float64(ones))
		w0 = float64(n) / (2 * float64(n-ones))
	}
	t := 0
	for epoch := 0; epoch < epochs; epoch++ {
		order := rng.Perm(n)
		for _, i := range order {
			t++
			eta := 1 / (lambda * float64(t))
			yi := float64(2*y[i] - 1) // {-1, +1}
			score := s.bias
			for j, v := range x[i] {
				score += s.w[j] * v
			}
			// w <- (1 - eta*lambda) w [+ cw*eta*yi*x on margin violation]
			decay := 1 - eta*lambda
			for j := range s.w {
				s.w[j] *= decay
			}
			if yi*score < 1 {
				cw := w0
				if y[i] == 1 {
					cw = w1
				}
				for j, v := range x[i] {
					s.w[j] += cw * eta * yi * v
				}
				s.bias += cw * eta * yi
			}
		}
	}
	s.fitPlatt(x, y)
	return nil
}

// Score returns the raw decision values w·x + b.
func (s *SVM) Score(x [][]float64) []float64 {
	out := make([]float64, len(x))
	for i, row := range x {
		z := s.bias
		for j, v := range row {
			z += s.w[j] * v
		}
		out[i] = z
	}
	return out
}

// fitPlatt fits p = sigmoid(a*score + b) by gradient descent on the
// cross-entropy with the Platt target smoothing. Each iteration forms
// every a*score + b, takes the sigmoids in one linalg.Sigmoids call and
// then accumulates the gradient in row order: the float operations,
// and so the bits, of a row-at-a-time loop.
func (s *SVM) fitPlatt(x [][]float64, y []int) {
	scores := s.Score(x)
	n := len(y)
	ones := 0
	for _, v := range y {
		ones += v
	}
	// Platt's smoothed targets guard against overconfident calibration.
	tPos := (float64(ones) + 1) / (float64(ones) + 2)
	tNeg := 1 / (float64(n-ones) + 2)
	targets := make([]float64, n)
	for i := range targets {
		targets[i] = tNeg
		if y[i] == 1 {
			targets[i] = tPos
		}
	}
	p := make([]float64, n)
	a, b := 1.0, 0.0
	lr := 0.5
	inv := 1 / float64(n)
	for it := 0; it < plattIterations; it++ {
		for i, sc := range scores {
			p[i] = a*sc + b
		}
		linalg.Sigmoids(p, p)
		ga, gb := 0.0, 0.0
		for i, sc := range scores {
			e := p[i] - targets[i]
			ga += e * sc
			gb += e
		}
		a -= lr * ga * inv
		b -= lr * gb * inv
	}
	s.plattA, s.plattB = a, b
}

// PredictProba returns the Platt-scaled match probabilities.
func (s *SVM) PredictProba(x [][]float64) []float64 {
	scores := s.Score(x)
	for i, sc := range scores {
		scores[i] = s.plattA*sc + s.plattB
	}
	linalg.Sigmoids(scores, scores)
	return scores
}

// ClassifierType implements ml.ParamClassifier.
func (s *SVM) ClassifierType() string { return "svm" }

// InputDim implements ml.ParamClassifier.
func (s *SVM) InputDim() int { return len(s.w) }

// Params is the serialised state of a trained SVM: the learned margin
// and the Platt calibration. Older artifacts also carry a "config"
// object, which decoding ignores.
type Params struct {
	W      []float64 `json:"w"`
	Bias   float64   `json:"bias"`
	PlattA float64   `json:"platt_a"`
	PlattB float64   `json:"platt_b"`
}

// Params implements ml.ParamClassifier.
func (s *SVM) Params() ([]byte, error) {
	if s.w == nil {
		return nil, ml.ErrNotTrained
	}
	return json.Marshal(Params{W: s.w, Bias: s.bias, PlattA: s.plattA, PlattB: s.plattB})
}

// SetParams implements ml.ParamClassifier.
func (s *SVM) SetParams(b []byte) error {
	var p Params
	if err := json.Unmarshal(b, &p); err != nil {
		return fmt.Errorf("svm: params: %w", err)
	}
	if len(p.W) == 0 {
		return fmt.Errorf("svm: params carry no weight vector")
	}
	s.w = p.W
	s.bias = p.Bias
	s.plattA = p.PlattA
	s.plattB = p.PlattB
	return nil
}
