// Package logreg implements L2-regularised binary logistic regression
// trained with full-batch gradient descent. Features are already in
// [0, 1] in this repository, so no internal standardisation is needed.
package logreg

import (
	"encoding/json"
	"fmt"

	"transer/internal/linalg"
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

// Fit trains with gradient descent on the logistic loss. Each epoch
// forms every row's score bias + Σ w[j]·x[i][j] in feature order, one
// Axpy per feature over a column-major copy of x, takes the sigmoids in
// one linalg.Sigmoids call, and then sums each gradient entry over the
// rows in row order: the float operations, and so the bits, of a
// row-at-a-time loop.
func (l *LogReg) Fit(x [][]float64, y []int) error {
	dim, err := ml.ValidateTrainingData(x, y)
	if err != nil {
		return err
	}
	l.w = make([]float64, dim)
	l.bias = 0
	n := len(x)
	cols := make([]float64, dim*n)
	for i, row := range x {
		for j, v := range row {
			cols[j*n+i] = v
		}
	}
	p := make([]float64, n)
	grad := make([]float64, dim)
	inv := 1 / float64(n)
	for epoch := 0; epoch < epochs; epoch++ {
		for i := range p {
			p[i] = l.bias
		}
		for j, w := range l.w {
			linalg.Axpy(p, cols[j*n:(j+1)*n], w)
		}
		linalg.Sigmoids(p, p)
		gradB := 0.0
		for i, yi := range y {
			p[i] -= float64(yi)
			gradB += p[i]
		}
		columnGradient(grad, cols, p)
		for j := range l.w {
			l.w[j] -= learningRate * (grad[j]*inv + l2*l.w[j])
		}
		l.bias -= learningRate * gradB * inv
	}
	return nil
}

// columnGradient sets grad[j] = Σ e[i]·cols[j*n+i], summed from i = 0
// upwards as a row-at-a-time loop sums it, for the column-major cols
// of n = len(e) rows. Four columns share one pass over e, so four
// independent sums stay in registers.
func columnGradient(grad, cols, e []float64) {
	n := len(e)
	j := 0
	for ; j+4 <= len(grad); j += 4 {
		c0 := cols[j*n : (j+1)*n][:n]
		c1 := cols[(j+1)*n : (j+2)*n][:n]
		c2 := cols[(j+2)*n : (j+3)*n][:n]
		c3 := cols[(j+3)*n : (j+4)*n][:n]
		var g0, g1, g2, g3 float64
		for i, ei := range e {
			g0 += ei * c0[i]
			g1 += ei * c1[i]
			g2 += ei * c2[i]
			g3 += ei * c3[i]
		}
		grad[j], grad[j+1], grad[j+2], grad[j+3] = g0, g1, g2, g3
	}
	for ; j < len(grad); j++ {
		c := cols[j*n : (j+1)*n][:n]
		g := 0.0
		for i, ei := range e {
			g += ei * c[i]
		}
		grad[j] = g
	}
}

// PredictProba returns sigmoid(w·x + b) per row.
func (l *LogReg) PredictProba(x [][]float64) []float64 {
	out := make([]float64, len(x))
	for i, row := range x {
		z := l.bias
		for j, v := range row {
			z += l.w[j] * v
		}
		out[i] = z
	}
	linalg.Sigmoids(out, out)
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
