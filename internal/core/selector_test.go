package core

import (
	"math"
	"math/rand"
	"testing"

	"transer/internal/kdtree"
	"transer/internal/testkit"
)

// referenceSelect is the direct per-instance implementation of the SEL
// phase, used to validate the duplicate-grouping optimisation in
// selectInstances.
func referenceSelect(xs [][]float64, ys []int, xt [][]float64, cfg Config) []int {
	cfg = cfg.withDefaults()
	sel := newSelector(xs, ys, xt, cfg)
	var out []int
	for i := range xs {
		if sel.accepted(sel.similaritiesFor(i)) {
			out = append(out, i)
		}
	}
	return out
}

// quantizedProblem generates data with many duplicate vectors, the
// regime the grouping optimisation targets.
func quantizedProblem(n, m int, seed int64) (xs [][]float64, ys []int, xt [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	gen := func(count int) ([][]float64, []int) {
		x := make([][]float64, count)
		y := make([]int, count)
		for i := range x {
			label := rng.Intn(2)
			centre := 0.2
			if label == 1 {
				centre = 0.8
			}
			row := make([]float64, m)
			for j := range row {
				v := centre + rng.NormFloat64()*0.1
				// Quantise to a coarse grid to force duplicates.
				v = math.Round(v*5) / 5
				if v < 0 {
					v = 0
				} else if v > 1 {
					v = 1
				}
				row[j] = v
			}
			x[i] = row
			y[i] = label
		}
		return x, y
	}
	xs, ys = gen(n)
	xt, _ = gen(n)
	return
}

// dupHeavyProblem builds a duplicate-heavy grid problem with labels
// assigned independently of vectors, so identical vectors carry
// conflicting labels — the regime where the selector's per-vector
// group decision is easiest to get wrong.
func dupHeavyProblem(pt *testkit.T) (xs [][]float64, ys []int, xt [][]float64, cfg Config) {
	n := 3*pt.Size + 12
	m := 2 + pt.Rng.Intn(3)
	xs = testkit.GridMatrix(pt.Rng, n, m)
	ys = make([]int, n)
	for i := range ys {
		ys[i] = pt.Rng.Intn(2)
	}
	for k := 0; k < n/3; k++ {
		xs[pt.Rng.Intn(n)] = xs[pt.Rng.Intn(n)]
	}
	xt = testkit.GridMatrix(pt.Rng, n/2+8, m)
	cfg = Config{
		K:          []int{3, 5, 7}[pt.Rng.Intn(3)],
		TC:         []float64{0.5, 0.7, 0.9}[pt.Rng.Intn(3)],
		TL:         []float64{0.5, 0.7, 0.9}[pt.Rng.Intn(3)],
		TP:         0.9,
		B:          3,
		EnableSimV: pt.Rng.Intn(2) == 0,
		TV:         0.7,
		Workers:    1 + pt.Rng.Intn(4),
	}
	return xs, ys, xt, cfg
}

// TestSelectInstancesMatchesReference: the selector returns exactly
// the per-instance selection, bitwise, on quantized problems.
func TestSelectInstancesMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		xs, ys, xt := quantizedProblem(150, 3, seed)
		for _, cfg := range []Config{
			DefaultConfig(),
			{K: 3, TC: 0.6, TL: 0.7, TP: 0.9, B: 3},
			{K: 7, TC: 0.9, TL: 0.9, TP: 0.9, B: 3, EnableSimV: true, TV: 0.8},
		} {
			got := SelectInstances(xs, ys, xt, cfg)
			want := referenceSelect(xs, ys, xt, cfg)
			if len(got) != len(want) {
				t.Fatalf("seed %d cfg %+v: optimised kept %d, reference kept %d", seed, cfg, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d: selection differs at position %d: %d vs %d", seed, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSELModesExactEquivalence: on duplicate-heavy data with
// conflicting-label duplicates, the selector returns the exact
// per-instance selection, bitwise, at every worker count.
func TestSELModesExactEquivalence(t *testing.T) {
	testkit.Run(t, "selector/modes-exact-equivalence", 20, func(pt *testkit.T) {
		xs, ys, xt, cfg := dupHeavyProblem(pt)
		want := referenceSelect(xs, ys, xt, cfg)
		for _, workers := range []int{cfg.Workers, 1, 4} {
			cfg.Workers = workers
			if got := SelectInstances(xs, ys, xt, cfg); !testkit.EqualInts(got, want) {
				pt.Errorf("kept %v, reference kept %v (cfg=%+v)", got, want, cfg)
				return
			}
		}
	})
}

func TestSelectInstancesGroupSharing(t *testing.T) {
	// All duplicates of the same (vector, label) must receive the same
	// decision.
	xs := [][]float64{
		{0.8, 0.8}, {0.8, 0.8}, {0.8, 0.8}, {0.8, 0.8},
		{0.8, 0.8}, {0.8, 0.8}, {0.8, 0.8}, {0.8, 0.8},
		{0.2, 0.2}, {0.2, 0.2}, {0.2, 0.2}, {0.2, 0.2},
		{0.2, 0.2}, {0.2, 0.2}, {0.2, 0.2}, {0.2, 0.2},
	}
	ys := []int{1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0}
	xt := xs // identical target distribution
	sel := SelectInstances(xs, ys, xt, DefaultConfig())
	// With identical domains and pure neighbourhoods everything passes.
	if len(sel) != len(xs) {
		t.Fatalf("expected all %d instances selected, got %d", len(xs), len(sel))
	}
}

func TestNeighbourhoodCovariance(t *testing.T) {
	pts := [][]float64{{0, 0}, {2, 0}, {0, 2}, {2, 2}}
	nn := []kdtree.Neighbour{{ID: 0}, {ID: 1}, {ID: 2}, {ID: 3}}
	cov := neighbourhoodCovariance(pts, nn, 2)
	// Mean (1,1); var per dim = 1; covariance 0.
	if math.Abs(cov[0]-1) > 1e-12 || math.Abs(cov[3]-1) > 1e-12 {
		t.Errorf("diagonal = %v, %v; want 1, 1", cov[0], cov[3])
	}
	if math.Abs(cov[1]) > 1e-12 || math.Abs(cov[2]) > 1e-12 {
		t.Errorf("off-diagonal = %v, %v; want 0", cov[1], cov[2])
	}
}

func TestSimCExcludesSelf(t *testing.T) {
	// A lone mislabelled instance inside an opposite-label cluster must
	// get sim_c = 0: its own label must not count.
	xs := [][]float64{
		{0.5, 0.5}, // the mislabelled one (label 1)
		{0.5, 0.52}, {0.52, 0.5}, {0.48, 0.5}, {0.5, 0.48},
		{0.52, 0.52}, {0.48, 0.48}, {0.52, 0.48},
	}
	ys := []int{1, 0, 0, 0, 0, 0, 0, 0}
	xt := xs
	cfg := DefaultConfig()
	sims := Similarities(xs, ys, xt, cfg)
	if sims[0].SimC != 0 {
		t.Errorf("mislabelled instance sim_c = %v, want 0", sims[0].SimC)
	}
	if sims[1].SimC != 6.0/7.0 {
		t.Errorf("cluster member sim_c = %v, want 6/7", sims[1].SimC)
	}
}

func TestSimLIdenticalDomains(t *testing.T) {
	// When source and target are identical point sets, sim_l should be
	// very high for every instance.
	xs, ys, _ := quantizedProblem(100, 3, 9)
	sims := Similarities(xs, ys, xs, DefaultConfig())
	for i, s := range sims {
		if s.SimL < 0.8 {
			t.Errorf("instance %d sim_l = %v on identical domains", i, s.SimL)
		}
	}
}

func TestDecayConstant(t *testing.T) {
	// Guard the paper's e^{-5x} choice.
	if decayRate != 5.0 {
		t.Errorf("decayRate = %v, want 5 (paper Figure 5 selection)", decayRate)
	}
}
