package logreg

import (
	"errors"
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
