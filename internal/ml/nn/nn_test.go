package nn

import (
	"math"
	"math/rand"
	"testing"

	"transer/internal/ml/mltest"
)

// shiftedBlobs builds a target domain by translating the source blobs,
// simulating a marginal distribution shift.
func shiftedBlobs(n, dim int, shift float64, seed int64) ([][]float64, []int) {
	x, y := mltest.TwoBlobs(n, dim, 0.1, seed)
	for _, row := range x {
		for j := range row {
			row[j] += shift
			if row[j] > 1 {
				row[j] = 1
			}
		}
	}
	return x, y
}

func TestDANNLearnsLabels(t *testing.T) {
	xs, ys := mltest.TwoBlobs(300, 4, 0.1, 4)
	xt, yt := shiftedBlobs(300, 4, 0.1, 5)
	d := NewDANN(DANNConfig{Seed: 4})
	if err := d.FitDomains(xs, ys, xt); err != nil {
		t.Fatalf("FitDomains: %v", err)
	}
	if acc := mltest.Accuracy(d.PredictProba(xs), ys); acc < 0.9 {
		t.Errorf("source accuracy %.3f", acc)
	}
	if acc := mltest.Accuracy(d.PredictProba(xt), yt); acc < 0.8 {
		t.Errorf("target accuracy %.3f under small shift", acc)
	}
}

func TestDANNDomainConfusion(t *testing.T) {
	// With gradient reversal the domain head should NOT be able to
	// separate the domains sharply: its mean prediction gap between
	// source and target should stay modest.
	xs, ys := mltest.TwoBlobs(300, 4, 0.1, 6)
	xt, _ := shiftedBlobs(300, 4, 0.15, 7)
	d := NewDANN(DANNConfig{Seed: 6})
	if err := d.FitDomains(xs, ys, xt); err != nil {
		t.Fatal(err)
	}
	mean := func(p []float64) float64 {
		s := 0.0
		for _, v := range p {
			s += v
		}
		return s / float64(len(p))
	}
	gap := math.Abs(mean(d.DomainProba(xt)) - mean(d.DomainProba(xs)))
	if gap > 0.9 {
		t.Errorf("domain head separates domains perfectly (gap %.3f); gradient reversal ineffective", gap)
	}
}

func TestDANNErrors(t *testing.T) {
	d := NewDANN(DANNConfig{})
	if err := d.FitDomains(nil, nil, nil); err == nil {
		t.Errorf("empty source accepted")
	}
	if err := d.FitDomains([][]float64{{1}}, []int{1, 0}, nil); err == nil {
		t.Errorf("length mismatch accepted")
	}
	if p := d.PredictProba([][]float64{{0.1}}); p[0] != 0.5 {
		t.Errorf("untrained DANN should predict 0.5")
	}
	if p := d.DomainProba([][]float64{{0.1}}); p[0] != 0.5 {
		t.Errorf("untrained DANN domain head should predict 0.5")
	}
}

func TestDANNNoTargetStillTrains(t *testing.T) {
	xs, ys := mltest.TwoBlobs(200, 3, 0.1, 8)
	d := NewDANN(DANNConfig{Seed: 8})
	if err := d.FitDomains(xs, ys, nil); err != nil {
		t.Fatalf("FitDomains without target: %v", err)
	}
	if acc := mltest.Accuracy(d.PredictProba(xs), ys); acc < 0.9 {
		t.Errorf("source accuracy %.3f without target rows", acc)
	}
}

func TestDenseBackpropGradient(t *testing.T) {
	// Numerical gradient check on a tiny network: loss = 0.5*(out-1)^2.
	l := newDense(2, 1, false, rand.New(rand.NewSource(9)))
	x := []float64{0.3, 0.7}
	forwardLoss := func() float64 {
		out := l.forward(x)
		d := out[0] - 1
		return 0.5 * d * d
	}
	base := forwardLoss()
	_ = base
	out := l.forward(x)
	grad := []float64{out[0] - 1}
	// Analytic input gradient.
	gIn := l.backwardNoUpdate(grad)
	// Numerical input gradient.
	eps := 1e-6
	for j := range x {
		orig := x[j]
		x[j] = orig + eps
		up := forwardLoss()
		x[j] = orig - eps
		down := forwardLoss()
		x[j] = orig
		num := (up - down) / (2 * eps)
		if math.Abs(num-gIn[j]) > 1e-4 {
			t.Errorf("input gradient %d: analytic %v vs numeric %v", j, gIn[j], num)
		}
	}
}
