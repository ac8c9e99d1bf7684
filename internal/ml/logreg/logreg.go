// Package logreg implements L2-regularised binary logistic regression
// trained with full-batch gradient descent. Features are already in
// [0, 1] in this repository, so no internal standardisation is needed.
package logreg

import (
	"encoding/json"
	"fmt"
	"math"

	"transer/internal/ml"
)

// Config is empty: logistic regression has no setting that varies
// between callers. The hyper-parameters are the constants below.
type Config struct{}

const (
	// learningRate of gradient descent.
	learningRate = 1.0
	// epochs of full-batch updates.
	epochs = 800
	// l2 is the regularisation strength.
	l2 = 1e-4
)

// LogReg is a logistic regression classifier.
type LogReg struct {
	w    []float64
	bias float64
}

// New creates an untrained model.
func New(Config) *LogReg { return &LogReg{} }

// Factory returns an ml.Factory producing models with this config.
func Factory(cfg Config) ml.Factory {
	return func() ml.Classifier { return New(cfg) }
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		e := math.Exp(-z)
		return 1 / (1 + e)
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// Fit trains with gradient descent on the logistic loss.
func (l *LogReg) Fit(x [][]float64, y []int) error {
	dim, err := ml.ValidateTrainingData(x, y)
	if err != nil {
		return err
	}
	l.w = make([]float64, dim)
	l.bias = 0
	n := len(x)
	grad := make([]float64, dim)
	for epoch := 0; epoch < epochs; epoch++ {
		for j := range grad {
			grad[j] = 0
		}
		gradB := 0.0
		for i, row := range x {
			z := l.bias
			for j, v := range row {
				z += l.w[j] * v
			}
			p := sigmoid(z)
			e := p - float64(y[i])
			for j, v := range row {
				grad[j] += e * v
			}
			gradB += e
		}
		inv := 1 / float64(n)
		for j := range l.w {
			l.w[j] -= learningRate * (grad[j]*inv + l2*l.w[j])
		}
		l.bias -= learningRate * gradB * inv
	}
	return nil
}

// PredictProba returns sigmoid(w·x + b) per row.
func (l *LogReg) PredictProba(x [][]float64) []float64 {
	out := make([]float64, len(x))
	for i, row := range x {
		z := l.bias
		for j, v := range row {
			z += l.w[j] * v
		}
		out[i] = sigmoid(z)
	}
	return out
}

// Weights returns a copy of the trained weight vector (for tests and
// model inspection).
func (l *LogReg) Weights() ([]float64, float64) {
	return append([]float64(nil), l.w...), l.bias
}

// ClassifierType implements ml.ParamClassifier.
func (l *LogReg) ClassifierType() string { return "logreg" }

// InputDim implements ml.ParamClassifier.
func (l *LogReg) InputDim() int { return len(l.w) }

// Params is the serialised state of a trained LogReg: the learned
// weight vector and bias. Older artifacts also carry a "config" object,
// which decoding ignores.
type Params struct {
	W    []float64 `json:"w"`
	Bias float64   `json:"bias"`
}

// Params implements ml.ParamClassifier.
func (l *LogReg) Params() ([]byte, error) {
	if l.w == nil {
		return nil, ml.ErrNotTrained
	}
	return json.Marshal(Params{W: l.w, Bias: l.bias})
}

// SetParams implements ml.ParamClassifier.
func (l *LogReg) SetParams(b []byte) error {
	var p Params
	if err := json.Unmarshal(b, &p); err != nil {
		return fmt.Errorf("logreg: params: %w", err)
	}
	if len(p.W) == 0 {
		return fmt.Errorf("logreg: params carry no weight vector")
	}
	l.w = p.W
	l.bias = p.Bias
	return nil
}
