package svm

import (
	"errors"
	"math"
	"testing"

	"transer/internal/ml"
	"transer/internal/ml/mltest"
)

func TestSVMSeparable(t *testing.T) {
	x, y := mltest.TwoBlobs(300, 4, 0.12, 1)
	s := New(Config{Seed: 1})
	if err := s.Fit(x, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if acc := mltest.Accuracy(s.PredictProba(x), y); acc < 0.95 {
		t.Errorf("training accuracy %.3f", acc)
	}
}

func TestSVMScoresSeparateClasses(t *testing.T) {
	x, y := mltest.TwoBlobs(200, 3, 0.1, 2)
	s := New(Config{Seed: 2})
	if err := s.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	scores := s.Score(x)
	var posMean, negMean float64
	var nPos, nNeg int
	for i, sc := range scores {
		if y[i] == 1 {
			posMean += sc
			nPos++
		} else {
			negMean += sc
			nNeg++
		}
	}
	posMean /= float64(nPos)
	negMean /= float64(nNeg)
	if posMean <= negMean {
		t.Errorf("positive score mean %.3f not above negative %.3f", posMean, negMean)
	}
}

func TestSVMPlattCalibration(t *testing.T) {
	x, y := mltest.TwoBlobs(400, 4, 0.15, 3)
	s := New(Config{Seed: 3})
	if err := s.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	p := s.PredictProba(x)
	// Probabilities must be ordered consistently with the labels on
	// average and stay inside (0, 1).
	var posMean, negMean float64
	var nPos, nNeg int
	for i, v := range p {
		if v <= 0 || v >= 1 {
			t.Fatalf("probability %v outside (0,1)", v)
		}
		if y[i] == 1 {
			posMean += v
			nPos++
		} else {
			negMean += v
			nNeg++
		}
	}
	if posMean/float64(nPos) < negMean/float64(nNeg)+0.3 {
		t.Errorf("Platt probabilities poorly separated: pos %.3f vs neg %.3f",
			posMean/float64(nPos), negMean/float64(nNeg))
	}
}

func TestSVMErrors(t *testing.T) {
	s := New(Config{})
	if err := s.Fit(nil, nil); !errors.Is(err, ml.ErrNoTrainingData) {
		t.Errorf("empty fit error = %v", err)
	}
	if err := s.Fit([][]float64{{1}, {0}}, []int{0, 0}); !errors.Is(err, ml.ErrSingleClass) {
		t.Errorf("single class error = %v", err)
	}
}

func TestSVMDeterministicWithSeed(t *testing.T) {
	x, y := mltest.TwoBlobs(150, 3, 0.2, 5)
	s1, s2 := New(Config{Seed: 11}), New(Config{Seed: 11})
	if err := s1.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if err := s2.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	p1, p2 := s1.PredictProba(x), s2.PredictProba(x)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("non-deterministic at %d", i)
		}
	}
}

func BenchmarkSVMFit(b *testing.B) {
	x, y := mltest.TwoBlobs(1000, 8, 0.15, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New(Config{Seed: int64(i)})
		if err := s.Fit(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSVMParamsRoundTrip(t *testing.T) {
	mltest.CheckParamRoundTrip(t, func() ml.ParamClassifier { return New(Config{Seed: 3}) }, 7)
}

// sigmoidReference, plattReference and predictReference are the
// scalar sigmoid, fitPlatt and PredictProba as they were before the
// Platt scores went through linalg's kernels, kept as their oracle.
// Each product is converted to float64 before it is added, which the
// Go spec makes round, so the oracle stays unfused even where the
// compiler would fuse a multiply-add into an FMA.
func sigmoidReference(z float64) float64 {
	if z >= 0 {
		e := math.Exp(-z)
		return 1 / (1 + e)
	}
	e := math.Exp(z)
	return e / (1 + e)
}

func plattReference(scores []float64, y []int) (float64, float64) {
	n := len(y)
	ones := 0
	for _, v := range y {
		ones += v
	}
	tPos := (float64(ones) + 1) / (float64(ones) + 2)
	tNeg := 1 / (float64(n-ones) + 2)
	a, b := 1.0, 0.0
	lr := 0.5
	for it := 0; it < plattIterations; it++ {
		ga, gb := 0.0, 0.0
		for i, sc := range scores {
			target := tNeg
			if y[i] == 1 {
				target = tPos
			}
			p := sigmoidReference(float64(a*sc) + b)
			e := p - target
			ga += float64(e * sc)
			gb += e
		}
		inv := 1 / float64(n)
		a -= lr * ga * inv
		b -= lr * gb * inv
	}
	return a, b
}

func predictReference(scores []float64, a, b float64) []float64 {
	out := make([]float64, len(scores))
	for i, sc := range scores {
		out[i] = sigmoidReference(float64(a*sc) + b)
	}
	return out
}

// TestPlattBitwiseMatchesOracle: on both kernel paths, Fit's Platt
// calibration learns the reference loop's (A, B) bit for bit from the
// trained margin's scores, and PredictProba returns the reference
// probabilities bit for bit.
func TestPlattBitwiseMatchesOracle(t *testing.T) {
	mltest.EachKernelPath(t, func(t *testing.T) {
		for _, set := range mltest.OracleSets() {
			s := New(Config{Seed: 5})
			if err := s.Fit(set.X, set.Y); err != nil {
				t.Fatalf("%s: Fit: %v", set.Name, err)
			}
			scores := s.Score(set.X)
			a, b := plattReference(scores, set.Y)
			if math.Float64bits(s.plattA) != math.Float64bits(a) || math.Float64bits(s.plattB) != math.Float64bits(b) {
				t.Fatalf("%s: Platt (A, B) = (%v, %v), reference (%v, %v)", set.Name, s.plattA, s.plattB, a, b)
			}
			got, want := s.PredictProba(set.X), predictReference(scores, a, b)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: PredictProba[%d] = %v, reference %v", set.Name, i, got[i], want[i])
				}
			}
		}
	})
}
