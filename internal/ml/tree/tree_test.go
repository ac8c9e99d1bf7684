package tree

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"transer/internal/ml"
	"transer/internal/ml/mltest"
)

func TestTreeSeparable(t *testing.T) {
	x, y := mltest.TwoBlobs(200, 4, 0.1, 1)
	tr := New(Config{})
	if err := tr.Fit(x, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if acc := mltest.Accuracy(tr.PredictProba(x), y); acc < 0.95 {
		t.Errorf("training accuracy %.3f on separable data", acc)
	}
}

func TestTreeXOR(t *testing.T) {
	x, y := mltest.XOR(400, 0.05, 2)
	tr := New(Config{})
	if err := tr.Fit(x, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if acc := mltest.Accuracy(tr.PredictProba(x), y); acc < 0.9 {
		t.Errorf("XOR accuracy %.3f — tree should handle non-linear splits", acc)
	}
}

func TestTreeErrors(t *testing.T) {
	tr := New(Config{})
	if err := tr.Fit(nil, nil); !errors.Is(err, ml.ErrNoTrainingData) {
		t.Errorf("empty fit error = %v", err)
	}
	if err := tr.Fit([][]float64{{1}, {2}}, []int{1, 1}); !errors.Is(err, ml.ErrSingleClass) {
		t.Errorf("single class error = %v", err)
	}
}

func TestTreeUntrainedPredicts(t *testing.T) {
	tr := New(Config{})
	p := tr.PredictProba([][]float64{{0.5}})
	if p[0] != 0.5 {
		t.Errorf("untrained tree should predict 0.5, got %v", p[0])
	}
}

// TestTreeDepthLimit: 8192 alternating label runs along one feature
// need more than 2^maxDepth leaves to separate, so the tree would grow
// deeper than the limit if the limit did not stop it.
func TestTreeDepthLimit(t *testing.T) {
	const n = 1 << 14
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		x[i] = []float64{float64(i) / n}
		y[i] = i / 2 % 2
	}
	tr := New(Config{})
	if err := tr.Fit(x, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if d := tr.Depth(); d != maxDepth {
		t.Errorf("depth %d, want the limit %d", d, maxDepth)
	}
}

func TestTreeProbabilitiesHardOnPureLeaves(t *testing.T) {
	// Clean separable data grows pure leaves whose probabilities are
	// hard 0/1 — required so confidence thresholds near 1 (TransER's
	// t_p = 0.99) remain attainable, matching scikit-learn behaviour.
	x, y := mltest.TwoBlobs(100, 2, 0.05, 4)
	tr := New(Config{})
	if err := tr.Fit(x, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	sawHard := false
	for _, p := range tr.PredictProba(x) {
		if p < 0 || p > 1 {
			t.Fatalf("leaf probability %v out of range", p)
		}
		if p == 0 || p == 1 {
			sawHard = true
		}
	}
	if !sawHard {
		t.Errorf("no pure leaf produced a hard probability on separable data")
	}
}

func TestTreeConstantFeatures(t *testing.T) {
	// All feature values identical → no valid split → single leaf.
	x := [][]float64{{0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5}}
	y := []int{1, 0, 1, 0}
	tr := New(Config{})
	if err := tr.Fit(x, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	p := tr.PredictProba([][]float64{{0.5, 0.5}})
	if p[0] != 0.5 {
		t.Errorf("constant features should predict the prior 0.5, got %v", p[0])
	}
	if tr.Depth() != 0 {
		t.Errorf("expected single-leaf tree, depth %d", tr.Depth())
	}
}

func TestFitBootstrapSingleClass(t *testing.T) {
	// Bootstrap path tolerates single-class bags.
	x := [][]float64{{0.1}, {0.2}}
	y := []int{1, 1}
	tr := New(Config{})
	if err := tr.FitBootstrap(x, y, []int{0, 1}); err != nil {
		t.Fatalf("FitBootstrap: %v", err)
	}
	p := tr.PredictProba([][]float64{{0.15}})
	if p[0] < 0.5 {
		t.Errorf("single-class bag should lean towards that class, got %v", p[0])
	}
}

func TestFactory(t *testing.T) {
	f := Factory(Config{Seed: 3})
	c1, c2 := f(), f()
	if c1 == c2 {
		t.Errorf("factory should create fresh instances")
	}
	x, y := mltest.TwoBlobs(50, 2, 0.1, 5)
	if err := c1.Fit(x, y); err != nil {
		t.Fatalf("factory classifier Fit: %v", err)
	}
}

func BenchmarkTreeFit(b *testing.B) {
	x, y := mltest.TwoBlobs(1000, 8, 0.15, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := New(Config{})
		if err := tr.Fit(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func TestTreeParamsRoundTrip(t *testing.T) {
	mltest.CheckParamRoundTrip(t, func() ml.ParamClassifier { return New(Config{Seed: 3}) }, 7)
}

func TestTreeSetParamsRejectsBadFeature(t *testing.T) {
	tr := New(Config{})
	x, y := mltest.TwoBlobs(100, 3, 0.1, 1)
	if err := tr.Fit(x, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	b, err := tr.Params()
	if err != nil {
		t.Fatalf("Params: %v", err)
	}
	// Corrupt a split's feature index to point outside the feature
	// space; SetParams must reject the document.
	bad := []byte(strings.Replace(string(b), `"feature":`, `"feature":9`, 1))
	if !strings.Contains(string(b), `"feature":`) {
		t.Skip("tree degenerated to a single leaf; no split to corrupt")
	}
	if err := New(Config{}).SetParams(bad); err == nil {
		t.Fatalf("SetParams accepted a split feature outside the declared dim")
	}
}

// bestSplitReference is bestSplit as it was before the typed sort,
// kept as its oracle: the same scan over a sort.Slice ordering.
func (t *Tree) bestSplitReference(x [][]float64, y []int, idx []int) (feat int, thr float64, ok bool) {
	features := t.candidateFeatures()
	bestGini := gini(y, idx)
	type fv struct {
		v float64
		y int
	}
	vals := make([]fv, 0, len(idx))
	for _, f := range features {
		vals = vals[:0]
		for _, i := range idx {
			vals = append(vals, fv{x[i][f], y[i]})
		}
		sort.Slice(vals, func(a, b int) bool { return vals[a].v < vals[b].v })
		totalOnes := 0
		for _, v := range vals {
			totalOnes += v.y
		}
		n := len(vals)
		leftOnes := 0
		for i := 0; i < n-1; i++ {
			leftOnes += vals[i].y
			if vals[i].v == vals[i+1].v {
				continue
			}
			nl := i + 1
			nr := n - nl
			gl := giniCounts(leftOnes, nl)
			gr := giniCounts(totalOnes-leftOnes, nr)
			g := (float64(nl)*gl + float64(nr)*gr) / float64(n)
			if g < bestGini-1e-12 {
				bestGini = g
				feat = f
				thr = (vals[i].v + vals[i+1].v) / 2
				ok = true
			}
		}
	}
	return feat, thr, ok
}

// gridData draws n rows of dim similarity-like features on the 0.05
// grid, so most feature values tie, with labels that follow the
// feature mean plus noise.
func gridData(rng *rand.Rand, n, dim int) ([][]float64, []int) {
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		x[i] = make([]float64, dim)
		s := 0.0
		for f := range x[i] {
			x[i][f] = float64(rng.Intn(21)) * 0.05
			s += x[i][f]
		}
		if s/float64(dim)+0.3*rng.NormFloat64() > 0.5 {
			y[i] = 1
		}
	}
	return x, y
}

// TestBestSplitMatchesOracle: on tie-heavy grid data, bestSplit picks
// the same feature and bit-identical threshold as the sort.Slice
// oracle, for whole-feature trees and forest-style feature sampling
// (the two trees share a seed, so they draw the same candidates), on
// plain index sets and bootstrap multisets.
func TestBestSplitMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	splits := 0
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(300)
		dim := 1 + rng.Intn(11)
		x, y := gridData(rng, n, dim)
		cfg := Config{Seed: int64(trial)}
		if trial%2 == 1 {
			cfg.MaxFeatures = int(math.Sqrt(float64(dim)))
		}
		got, want := New(cfg), New(cfg)
		got.dim, want.dim = dim, dim
		for call := 0; call < 4; call++ {
			idx := make([]int, n)
			for i := range idx {
				if call%2 == 0 {
					idx[i] = i
				} else {
					idx[i] = rng.Intn(n)
				}
			}
			gf, gt, gok := got.bestSplit(x, y, idx)
			wf, wt, wok := want.bestSplitReference(x, y, idx)
			if gf != wf || math.Float64bits(gt) != math.Float64bits(wt) || gok != wok {
				t.Fatalf("trial %d call %d (n=%d dim=%d MaxFeatures=%d): bestSplit = (%d, %v, %v), oracle (%d, %v, %v)",
					trial, call, n, dim, cfg.MaxFeatures, gf, gt, gok, wf, wt, wok)
			}
			if gok {
				splits++
			}
		}
	}
	if splits < 600 {
		t.Errorf("only %d of 1200 calls found a split; the data no longer exercises the scan", splits)
	}
}

// TestBestSplitNaNTerminates: a NaN feature value leaves the split
// unspecified, but the scan must still end, and a clean feature beside
// it must still be split.
func TestBestSplitNaNTerminates(t *testing.T) {
	x := [][]float64{{math.NaN(), 0.1}, {0.2, 0.2}, {0.3, 0.8}, {math.NaN(), 0.9}, {0.5, 0.1}, {0.6, 0.9}}
	y := []int{0, 0, 1, 1, 0, 1}
	tr := New(Config{})
	tr.dim = 2
	feat, thr, ok := tr.bestSplit(x, y, []int{0, 1, 2, 3, 4, 5})
	if !ok || feat != 1 || thr != 0.5 {
		t.Fatalf("bestSplit = (%d, %v, %v), want (1, 0.5, true)", feat, thr, ok)
	}
}
