package logreg

import (
	"errors"
	"math"
	"testing"

	"transer/internal/ml"
	"transer/internal/ml/mltest"
)

func TestLogRegSeparable(t *testing.T) {
	x, y := mltest.TwoBlobs(300, 4, 0.12, 1)
	l := New(Config{})
	if err := l.Fit(x, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if acc := mltest.Accuracy(l.PredictProba(x), y); acc < 0.95 {
		t.Errorf("training accuracy %.3f", acc)
	}
}

func TestLogRegWeightsDirection(t *testing.T) {
	// Positive class at high feature values → positive weights.
	x, y := mltest.TwoBlobs(300, 3, 0.1, 2)
	l := New(Config{})
	if err := l.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	w, _ := l.Weights()
	for j, v := range w {
		if v <= 0 {
			t.Errorf("weight %d = %v, want positive", j, v)
		}
	}
}

func TestLogRegErrors(t *testing.T) {
	l := New(Config{})
	if err := l.Fit(nil, nil); !errors.Is(err, ml.ErrNoTrainingData) {
		t.Errorf("empty fit error = %v", err)
	}
	if err := l.Fit([][]float64{{1}, {0}}, []int{1, 1}); !errors.Is(err, ml.ErrSingleClass) {
		t.Errorf("single class error = %v", err)
	}
}

func TestLogRegProbabilityRange(t *testing.T) {
	x, y := mltest.TwoBlobs(200, 4, 0.2, 5)
	l := New(Config{})
	if err := l.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	for _, p := range l.PredictProba(x) {
		if p < 0 || p > 1 {
			t.Fatalf("probability %v out of range", p)
		}
	}
}

func TestLogRegDeterministic(t *testing.T) {
	x, y := mltest.TwoBlobs(100, 3, 0.15, 6)
	l1, l2 := New(Config{}), New(Config{})
	if err := l1.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if err := l2.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	p1, p2 := l1.PredictProba(x), l2.PredictProba(x)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("non-deterministic at %d", i)
		}
	}
}

func BenchmarkLogRegFit(b *testing.B) {
	x, y := mltest.TwoBlobs(1000, 8, 0.15, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := New(Config{})
		if err := l.Fit(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func TestLogRegParamsRoundTrip(t *testing.T) {
	mltest.CheckParamRoundTrip(t, func() ml.ParamClassifier { return New(Config{}) }, 7)
}

// sigmoidReference, fitReference and predictReference are the scalar
// sigmoid, Fit and PredictProba as they were before the scores went
// through linalg's kernels, kept as their oracle. Each product is
// converted to float64 before it is added, which the Go spec makes
// round, so the oracle stays unfused even where the compiler would
// fuse a multiply-add into an FMA.
func sigmoidReference(z float64) float64 {
	if z >= 0 {
		e := math.Exp(-z)
		return 1 / (1 + e)
	}
	e := math.Exp(z)
	return e / (1 + e)
}

func fitReference(x [][]float64, y []int) ([]float64, float64) {
	dim := len(x[0])
	w := make([]float64, dim)
	bias := 0.0
	n := len(x)
	grad := make([]float64, dim)
	for epoch := 0; epoch < epochs; epoch++ {
		for j := range grad {
			grad[j] = 0
		}
		gradB := 0.0
		for i, row := range x {
			z := bias
			for j, v := range row {
				z += float64(w[j] * v)
			}
			p := sigmoidReference(z)
			e := p - float64(y[i])
			for j, v := range row {
				grad[j] += float64(e * v)
			}
			gradB += e
		}
		inv := 1 / float64(n)
		for j := range w {
			w[j] -= learningRate * (float64(grad[j]*inv) + float64(l2*w[j]))
		}
		bias -= learningRate * gradB * inv
	}
	return w, bias
}

func predictReference(w []float64, bias float64, x [][]float64) []float64 {
	out := make([]float64, len(x))
	for i, row := range x {
		z := bias
		for j, v := range row {
			z += float64(w[j] * v)
		}
		out[i] = sigmoidReference(z)
	}
	return out
}

// TestFitBitwiseMatchesOracle: on both kernel paths, Fit learns the
// reference loop's (w, bias) bit for bit, and PredictProba returns the
// reference probabilities bit for bit.
func TestFitBitwiseMatchesOracle(t *testing.T) {
	mltest.EachKernelPath(t, func(t *testing.T) {
		for _, set := range mltest.OracleSets() {
			l := New(Config{})
			if err := l.Fit(set.X, set.Y); err != nil {
				t.Fatalf("%s: Fit: %v", set.Name, err)
			}
			w, bias := l.Weights()
			wantW, wantBias := fitReference(set.X, set.Y)
			for j := range wantW {
				if math.Float64bits(w[j]) != math.Float64bits(wantW[j]) {
					t.Fatalf("%s: w[%d] = %v, reference %v", set.Name, j, w[j], wantW[j])
				}
			}
			if math.Float64bits(bias) != math.Float64bits(wantBias) {
				t.Fatalf("%s: bias = %v, reference %v", set.Name, bias, wantBias)
			}
			got, want := l.PredictProba(set.X), predictReference(wantW, wantBias, set.X)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: PredictProba[%d] = %v, reference %v", set.Name, i, got[i], want[i])
				}
			}
		}
	})
}
