package forest

import (
	"errors"
	"testing"

	"transer/internal/ml"
	"transer/internal/ml/mltest"
)

func TestForestSeparable(t *testing.T) {
	x, y := mltest.TwoBlobs(300, 4, 0.15, 1)
	f := New(Config{Seed: 1})
	if err := f.Fit(x, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if acc := mltest.Accuracy(f.PredictProba(x), y); acc < 0.95 {
		t.Errorf("training accuracy %.3f", acc)
	}
}

func TestForestXORGeneralisation(t *testing.T) {
	xTrain, yTrain := mltest.XOR(400, 0.08, 2)
	xTest, yTest := mltest.XOR(200, 0.08, 3)
	f := New(Config{Seed: 2})
	if err := f.Fit(xTrain, yTrain); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if acc := mltest.Accuracy(f.PredictProba(xTest), yTest); acc < 0.9 {
		t.Errorf("XOR test accuracy %.3f", acc)
	}
}

func TestForestDeterministicWithSeed(t *testing.T) {
	x, y := mltest.TwoBlobs(200, 4, 0.2, 4)
	f1 := New(Config{Seed: 9})
	f2 := New(Config{Seed: 9})
	if err := f1.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if err := f2.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	p1 := f1.PredictProba(x)
	p2 := f2.PredictProba(x)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("same seed produced different predictions at %d: %v vs %v", i, p1[i], p2[i])
		}
	}
}

func TestForestErrors(t *testing.T) {
	f := New(Config{})
	if err := f.Fit(nil, nil); !errors.Is(err, ml.ErrNoTrainingData) {
		t.Errorf("empty fit error = %v", err)
	}
	if err := f.Fit([][]float64{{1}, {2}}, []int{0, 0}); !errors.Is(err, ml.ErrSingleClass) {
		t.Errorf("single class error = %v", err)
	}
}

func TestForestUntrained(t *testing.T) {
	f := New(Config{})
	p := f.PredictProba([][]float64{{0.1}})
	if p[0] != 0.5 {
		t.Errorf("untrained forest should predict 0.5, got %v", p[0])
	}
}

func TestForestProbabilityAveraging(t *testing.T) {
	x, y := mltest.TwoBlobs(200, 4, 0.15, 5)
	f := New(Config{Seed: 6})
	if err := f.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	for _, p := range f.PredictProba(x) {
		if p < 0 || p > 1 {
			t.Fatalf("probability %v out of range", p)
		}
	}
}

func BenchmarkForestFit(b *testing.B) {
	x, y := mltest.TwoBlobs(500, 8, 0.15, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := New(Config{Seed: int64(i)})
		if err := f.Fit(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func TestForestParamsRoundTrip(t *testing.T) {
	mltest.CheckParamRoundTrip(t, func() ml.ParamClassifier { return New(Config{Seed: 3}) }, 7)
}
