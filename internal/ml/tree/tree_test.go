package tree

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
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
	if err := tr.FitBootstrap(Encode(x), y, []int{0, 1}); err != nil {
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

// growReference and bestSplitReference are grow and bestSplit as they
// were before the rank encoding, kept as their oracle: every node
// gathers each candidate feature's values again, sorts the label-1 and
// the label-0 values apart and merge-scans the two lists.
func (t *Tree) growReference(x [][]float64, y []int, idx []int, depth int) *node {
	ones := 0
	for _, i := range idx {
		ones += y[i]
	}
	pure := ones == 0 || ones == len(idx)
	if pure || depth >= maxDepth || len(idx) < 2*minLeaf {
		return leafNode(ones, len(idx))
	}
	feat, thr, ok := t.bestSplitReference(x, y, idx)
	if !ok {
		return leafNode(ones, len(idx))
	}
	var left, right []int
	for _, i := range idx {
		if x[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < minLeaf || len(right) < minLeaf {
		return leafNode(ones, len(idx))
	}
	return &node{
		feature:   feat,
		threshold: thr,
		left:      t.growReference(x, y, left, depth+1),
		right:     t.growReference(x, y, right, depth+1),
	}
}

// bestSplitReference: after each distinct value v, the counts left of
// the split are the merge positions, and the threshold is the midpoint
// of v and the next distinct value.
func (t *Tree) bestSplitReference(x [][]float64, y []int, idx []int) (feat int, thr float64, ok bool) {
	features := t.candidateFeatures(make([]int, t.dim))
	ones0 := 0
	for _, i := range idx {
		ones0 += y[i]
	}
	bestGini := giniCounts(ones0, len(idx))
	n := len(idx)
	ones := make([]float64, 0, n)
	zeros := make([]float64, 0, n)
	for _, f := range features {
		ones, zeros = ones[:0], zeros[:0]
		for _, i := range idx {
			if y[i] == 1 {
				ones = append(ones, x[i][f])
			} else {
				zeros = append(zeros, x[i][f])
			}
		}
		slices.Sort(ones)
		slices.Sort(zeros)
		totalOnes := len(ones)
		a, b := 0, 0 // label-1 and label-0 values left of the split
		for a+b < n {
			// Step past every value not above v: the values equal to v,
			// or, when v is NaN (slices.Sort puts NaNs first), all of
			// them, so NaN features end the scan instead of stalling it.
			v := nextValue(ones, zeros, a, b)
			for a < len(ones) && !(ones[a] > v) {
				a++
			}
			for b < len(zeros) && !(zeros[b] > v) {
				b++
			}
			nl := a + b
			if nl == n {
				break
			}
			nr := n - nl
			gl := giniCounts(a, nl)
			gr := giniCounts(totalOnes-a, nr)
			g := (float64(nl)*gl + float64(nr)*gr) / float64(n)
			if g < bestGini-1e-12 {
				bestGini = g
				feat = f
				thr = (v + nextValue(ones, zeros, a, b)) / 2
				ok = true
			}
		}
	}
	return feat, thr, ok
}

// nextValue is the smaller of ones[a] and zeros[b], skipping a list
// that is used up; one of them must not be.
func nextValue(ones, zeros []float64, a, b int) float64 {
	switch {
	case a == len(ones):
		return zeros[b]
	case b == len(zeros):
		return ones[a]
	}
	return min(ones[a], zeros[b])
}

// bestSplitAt runs the rank-count split search on the rows idx of x.
func (t *Tree) bestSplitAt(x [][]float64, y []int, idx []int) (feat int, thr float64, ok bool) {
	ones := 0
	for _, i := range idx {
		ones += y[i]
	}
	return newGrower(t, Encode(x), y).bestSplit(idx, ones)
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
// the same feature and bit-identical threshold as the per-node sort
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
			gf, gt, gok := got.bestSplitAt(x, y, idx)
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
	feat, thr, ok := tr.bestSplitAt(x, y, []int{0, 1, 2, 3, 4, 5})
	if !ok || feat != 1 || thr != 0.5 {
		t.Fatalf("bestSplit = (%d, %v, %v), want (1, 0.5, true)", feat, thr, ok)
	}
}

// dumpTree prints a tree pre-order with every float as its bits, so two
// dumps are equal exactly when the trees are bit for bit the same.
func dumpTree(n *node) string {
	if n == nil {
		return "nil"
	}
	if n.leaf {
		return fmt.Sprintf("L%x", math.Float64bits(n.proba))
	}
	return fmt.Sprintf("S%d:%x(%s,%s)", n.feature, math.Float64bits(n.threshold), dumpTree(n.left), dumpTree(n.right))
}

// checkSameTree fails unless got and want hold bit-identical nodes and
// export byte-identical Params (both failing alike where a threshold
// is infinite, which JSON cannot carry).
func checkSameTree(t *testing.T, what string, got, want *Tree) {
	t.Helper()
	if g, w := dumpTree(got.root), dumpTree(want.root); g != w {
		t.Fatalf("%s: tree differs from the oracle\n got %s\nwant %s", what, g, w)
	}
	gb, gerr := got.Params()
	wb, werr := want.Params()
	if !bytes.Equal(gb, wb) || (gerr == nil) != (werr == nil) {
		t.Fatalf("%s: Params = %s (%v), oracle %s (%v)", what, gb, gerr, wb, werr)
	}
}

// oracleData draws n rows of dim features in one of several value
// regimes, with labels that follow the features' mean plus noise.
func oracleData(rng *rand.Rand, regime, n, dim int) ([][]float64, []int) {
	// Values the edge regime draws from: signed zeros together, ±Inf,
	// neighbours whose midpoint rounds onto the larger one, and pairs
	// whose sum overflows, so the threshold is +Inf.
	edges := []float64{
		math.Copysign(0, -1), 0, -1, 1, math.Inf(-1), math.Inf(1),
		1, math.Nextafter(1, 2), 1e308, 1.5e308, -1e308, 0.05, 0.1,
	}
	x := make([][]float64, n)
	y := make([]int, n)
	constant := rng.Intn(dim) // a feature with one value in every row
	for i := range x {
		x[i] = make([]float64, dim)
		s := 0.0
		for f := range x[i] {
			var v float64
			switch {
			case f == constant:
				v = 0.25
			case regime == 0: // the compare features' 0.05 grid
				v = float64(rng.Intn(21)) * 0.05
			case regime == 1: // continuous embedding-like features
				v = rng.NormFloat64()
			case regime == 2:
				v = edges[rng.Intn(len(edges))]
			default: // grid values with the odd NaN
				v = float64(rng.Intn(5)) * 0.25
				if rng.Intn(40) == 0 {
					v = math.NaN()
				}
			}
			x[i][f] = v
			if !math.IsInf(v, 0) && !math.IsNaN(v) && math.Abs(v) < 1e300 {
				s += v
			}
		}
		if s/float64(dim)+0.3*rng.NormFloat64() > 0.5 {
			y[i] = 1
		}
	}
	return x, y
}

// TestTreeMatchesOracle: whole trees grown on the rank encoding are bit
// for bit the trees the per-node sort grows, through Fit and through
// forest-style fits (one Encoding shared by several bootstrap trees
// that sample sqrt(m) features per split). The data covers grid values
// with heavy ties, continuous values, ±0 in one feature, constant and
// single-value features, infinite and overflowing thresholds, and NaN.
func TestTreeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	splits := 0
	for trial := 0; trial < 200; trial++ {
		regime := trial % 4
		n := 1 + rng.Intn(400)
		dim := 1 + rng.Intn(12)
		if regime == 1 && trial%8 == 1 {
			dim = 40 + rng.Intn(60)
		}
		x, y := oracleData(rng, regime, n, dim)
		seed := int64(trial)

		got, want := New(Config{Seed: seed}), New(Config{Seed: seed})
		if err := got.Fit(x, y); err == nil {
			idx := make([]int, n)
			for i := range idx {
				idx[i] = i
			}
			want.dim = dim
			want.root = want.growReference(x, y, idx, 0)
			checkSameTree(t, fmt.Sprintf("trial %d Fit (regime %d, %dx%d)", trial, regime, n, dim), got, want)
			splits += got.Depth()
		}

		enc := Encode(x)
		maxFeat := max(1, int(math.Round(math.Sqrt(float64(dim)))))
		for k := 0; k < 3; k++ {
			idx := make([]int, n)
			for i := range idx {
				idx[i] = rng.Intn(n)
			}
			cfg := Config{MaxFeatures: maxFeat, Seed: rng.Int63()}
			want := New(cfg)
			want.dim = dim
			want.root = want.growReference(x, y, idx, 0)
			got := New(cfg)
			if err := got.FitBootstrap(enc, y, idx); err != nil {
				t.Fatalf("trial %d tree %d: FitBootstrap: %v", trial, k, err)
			}
			checkSameTree(t, fmt.Sprintf("trial %d bootstrap tree %d (regime %d, %dx%d, MaxFeatures %d)", trial, k, regime, n, dim, maxFeat), got, want)
			splits += got.Depth()
		}
	}
	if splits < 1000 {
		t.Errorf("trees reached a total depth of only %d; the data no longer exercises the split search", splits)
	}
}
