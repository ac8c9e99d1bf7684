package ml_test

// Property suite for the classifier layer, driven by internal/testkit.
// The shared invariants hold for every classifier behind ml.Classifier
// (row independence, determinism, probability bounds); the power-of-two
// scale invariance is asserted only for the classifiers whose decision
// functions are provably scale-free — trees and forests (count-based
// Gini gains over value *order*, midpoint thresholds that scale
// exactly). Multiplication by 2^k is exact in IEEE-754, so those
// assertions are bitwise, with no tolerances.

import (
	"math"
	"testing"

	"transer/internal/ml"
	"transer/internal/ml/forest"
	"transer/internal/ml/logreg"
	"transer/internal/ml/svm"
	"transer/internal/ml/tree"
	"transer/internal/testkit"
)

// factories lists every classifier under the shared invariants.
func factories() map[string]ml.Factory {
	return map[string]ml.Factory{
		"tree":   tree.Factory(tree.Config{Seed: 1}),
		"forest": forest.Factory(forest.Config{NumTrees: 8, Seed: 1}),
		"svm":    svm.Factory(svm.Config{}),
		"logreg": logreg.Factory(logreg.Config{}),
	}
}

// scaleFreeFactories lists the classifiers that must be exactly
// invariant under uniform power-of-two feature scaling.
func scaleFreeFactories() map[string]ml.Factory {
	return map[string]ml.Factory{
		"tree":   tree.Factory(tree.Config{Seed: 1}),
		"forest": forest.Factory(forest.Config{NumTrees: 8, Seed: 1}),
	}
}

func fitOn(pt *testkit.T, f ml.Factory, x [][]float64, y []int) ml.Classifier {
	c := f()
	if err := c.Fit(x, y); err != nil {
		pt.Fatalf("Fit: %v", err)
	}
	return c
}

// TestClassifierProbaBoundsAndDeterminism: every classifier emits one
// probability per row, inside [0, 1], NaN-free, and identically on a
// second train-and-predict cycle (classifiers are pure functions of
// their training set and config).
func TestClassifierProbaBoundsAndDeterminism(t *testing.T) {
	for name, f := range factories() {
		f := f
		testkit.Run(t, "ml/"+name+"/bounds-determinism", 8, func(pt *testkit.T) {
			d := testkit.NewDomain(pt.Rng, pt.Size)
			proba := fitOn(pt, f, d.XS, d.YS).PredictProba(d.XT)
			if len(proba) != len(d.XT) {
				pt.Fatalf("%d probabilities for %d rows", len(proba), len(d.XT))
			}
			for i, p := range proba {
				if math.IsNaN(p) || p < 0 || p > 1 {
					pt.Fatalf("probability %v at row %d outside [0,1]", p, i)
				}
			}
			again := fitOn(pt, f, d.XS, d.YS).PredictProba(d.XT)
			if !testkit.EqualFloats(proba, again) {
				pt.Errorf("two train/predict cycles disagree")
			}
		})
	}
}

// TestClassifierRowIndependence: PredictProba computes rows
// independently (the ml.Classifier contract ParallelProba relies on),
// so permuting the prediction rows must permute the output, and equal
// rows must get equal probabilities.
func TestClassifierRowIndependence(t *testing.T) {
	for name, f := range factories() {
		f := f
		testkit.Run(t, "ml/"+name+"/row-independence", 8, func(pt *testkit.T) {
			d := testkit.NewDomain(pt.Rng, pt.Size)
			c := fitOn(pt, f, d.XS, d.YS)
			// Inject duplicate prediction rows.
			for k := 0; k < len(d.XT)/4; k++ {
				d.XT[pt.Rng.Intn(len(d.XT))] = d.XT[pt.Rng.Intn(len(d.XT))]
			}
			base := c.PredictProba(d.XT)
			p := testkit.Perm(pt.Rng, len(d.XT))
			perm := c.PredictProba(testkit.Permute(p, d.XT))
			if !testkit.EqualFloats(perm, testkit.Permute(p, base)) {
				pt.Errorf("prediction not equivariant under row permutation")
			}
			for i := range d.XT {
				for j := i + 1; j < len(d.XT); j++ {
					if testkit.RowsEqual(d.XT[i], d.XT[j]) && base[i] != base[j] {
						pt.Errorf("equal rows %d and %d got probabilities %v and %v",
							i, j, base[i], base[j])
						return
					}
				}
			}
		})
	}
}

// TestScaleFreeClassifiersPow2Invariance: training and predicting on
// features scaled by 2^k yields bitwise identical probabilities for
// the order-based classifiers.
func TestScaleFreeClassifiersPow2Invariance(t *testing.T) {
	for name, f := range scaleFreeFactories() {
		f := f
		testkit.Run(t, "ml/"+name+"/pow2-invariance", 8, func(pt *testkit.T) {
			d := testkit.NewDomain(pt.Rng, pt.Size)
			base := fitOn(pt, f, d.XS, d.YS).PredictProba(d.XT)
			k := []int{-3, -1, 2, 4}[pt.Rng.Intn(4)]
			scaled := fitOn(pt, f, testkit.ScalePow2(d.XS, k), d.YS).
				PredictProba(testkit.ScalePow2(d.XT, k))
			if !testkit.EqualFloats(base, scaled) {
				pt.Errorf("predictions changed under uniform 2^%d feature scaling", k)
			}
		})
	}
}

// TestLabelsThresholdIdentities: ml.Labels is exact thresholding, and
// the positive count is non-increasing as the threshold rises.
func TestLabelsThresholdIdentities(t *testing.T) {
	testkit.Run(t, "ml/labels-threshold", 10, func(pt *testkit.T) {
		n := pt.Size * 4
		proba := make([]float64, n)
		for i := range proba {
			proba[i] = pt.Rng.Float64()
		}
		prev := -1
		for _, thr := range []float64{0, 0.25, 0.5, 0.75, 1} {
			labels := ml.Labels(proba, thr)
			ones := 0
			for i, l := range labels {
				want := 0
				if proba[i] >= thr {
					want = 1
				}
				if l != want {
					pt.Fatalf("label %d for probability %v at threshold %v", l, proba[i], thr)
				}
				ones += l
			}
			if prev >= 0 && ones > prev {
				pt.Fatalf("positive count rose from %d to %d as the threshold rose", prev, ones)
			}
			prev = ones
		}
	})
}

// TestConfidenceIdentity: ml.Confidence is max(p, 1-p), lands in
// [0.5, 1] for p in [0, 1], and is symmetric around p = 0.5.
func TestConfidenceIdentity(t *testing.T) {
	testkit.Run(t, "ml/confidence-identity", 10, func(pt *testkit.T) {
		for i := 0; i < pt.Size*4; i++ {
			p := pt.Rng.Float64()
			z := ml.Confidence(p)
			if z != math.Max(p, 1-p) {
				pt.Fatalf("Confidence(%v) = %v, want max(p, 1-p) = %v", p, z, math.Max(p, 1-p))
			}
			if z < 0.5 || z > 1 {
				pt.Fatalf("Confidence(%v) = %v outside [0.5, 1]", p, z)
			}
			if zz := ml.Confidence(1 - p); zz != z {
				pt.Fatalf("Confidence not symmetric: f(%v)=%v, f(%v)=%v", p, z, 1-p, zz)
			}
		}
	})
}

// TestParallelProbaAgreesAcrossWorkerCounts: chunked parallel
// prediction must be bitwise identical to the serial call for every
// worker count, including above the parallel dispatch threshold.
func TestParallelProbaAgreesAcrossWorkerCounts(t *testing.T) {
	testkit.Run(t, "ml/parallel-proba", 4, func(pt *testkit.T) {
		d := testkit.NewDomain(pt.Rng, pt.Size)
		c := fitOn(pt, tree.Factory(tree.Config{Seed: 1}), d.XS, d.YS)
		// Tile the target past the parallel threshold so chunked
		// dispatch actually happens.
		big := make([][]float64, 0, 600)
		for len(big) < 600 {
			big = append(big, d.XT...)
		}
		serial := c.PredictProba(big)
		for _, w := range []int{1, 2, 3, 7} {
			if got := ml.ParallelProba(c, big, w); !testkit.EqualFloats(got, serial) {
				pt.Fatalf("ParallelProba with %d workers differs from serial", w)
			}
		}
	})
}

// TestFitWithFallbackSingleClass: single-class training data must fall
// back to a constant classifier predicting that class.
func TestFitWithFallbackSingleClass(t *testing.T) {
	testkit.Run(t, "ml/fit-fallback", 8, func(pt *testkit.T) {
		label := pt.Rng.Intn(2)
		x := testkit.Matrix(pt.Rng, pt.Size+4, 3)
		y := make([]int, len(x))
		for i := range y {
			y[i] = label
		}
		c, err := ml.FitWithFallback(tree.Factory(tree.Config{Seed: 1}), x, y)
		if err != nil {
			pt.Fatalf("FitWithFallback: %v", err)
		}
		for _, p := range c.PredictProba(x[:2]) {
			if p != float64(label) {
				pt.Fatalf("fallback predicts %v for single-class label %d", p, label)
			}
		}
	})
}
