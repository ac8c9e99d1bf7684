package pipeline_test

// Property suite for the domain construction pipeline, driven by
// internal/testkit's database-pair generator. The pipeline's contract
// is bitwise determinism for fixed inputs (the premise of the memoized
// store), so rebuild comparisons use reflect.DeepEqual with no
// tolerances.

import (
	"context"
	"reflect"
	"testing"

	"transer/internal/blocking"
	"transer/internal/compare"
	"transer/internal/dataset"
	"transer/internal/pipeline"
	"transer/internal/query"
	"transer/internal/testkit"
)

// TestBuildDeterministicAcrossWorkers: building the same databases
// twice, and under different comparison worker counts, yields
// identical domains — pairs, features and labels all bitwise equal.
func TestBuildDeterministicAcrossWorkers(t *testing.T) {
	testkit.Run(t, "pipeline/build-determinism", 8, func(pt *testkit.T) {
		a, b := testkit.DatabasePair(pt.Rng, pt.Size*3+6)
		one := pipeline.Build(a, b, pipeline.BuildSpec{Name: "p", Workers: 1}, nil)
		for _, workers := range []int{1, 2, 4} {
			again := pipeline.Build(a, b, pipeline.BuildSpec{Name: "p", Workers: workers}, nil)
			if !reflect.DeepEqual(one.Pairs, again.Pairs) ||
				!reflect.DeepEqual(one.X, again.X) ||
				!reflect.DeepEqual(one.Y, again.Y) {
				pt.Errorf("rebuild with %d workers produced a different domain", workers)
				return
			}
		}
	})
}

// TestBuildShapeAndFeatureBounds: one feature row per candidate pair,
// one label per pair when ground truth exists, every feature in the
// normalised [0, 1] space of the comparison functions, and every pair
// index in range.
func TestBuildShapeAndFeatureBounds(t *testing.T) {
	testkit.Run(t, "pipeline/build-shape", 8, func(pt *testkit.T) {
		a, b := testkit.DatabasePair(pt.Rng, pt.Size*3+6)
		d := pipeline.Build(a, b, pipeline.BuildSpec{Name: "p"}, nil)
		if len(d.X) != len(d.Pairs) {
			pt.Fatalf("%d feature rows for %d pairs", len(d.X), len(d.Pairs))
		}
		if len(d.Y) != 0 && len(d.Y) != len(d.Pairs) {
			pt.Fatalf("%d labels for %d pairs", len(d.Y), len(d.Pairs))
		}
		m := d.NumFeatures()
		for i, row := range d.X {
			if len(row) != m {
				pt.Fatalf("row %d has %d features, scheme has %d", i, len(row), m)
			}
			for j, v := range row {
				if v < 0 || v > 1 {
					pt.Fatalf("feature (%d,%d) = %v outside [0,1]", i, j, v)
				}
			}
		}
		for i, p := range d.Pairs {
			if p.A < 0 || p.A >= a.NumRecords() || p.B < 0 || p.B >= b.NumRecords() {
				pt.Fatalf("pair %d = %+v out of range (%d × %d records)",
					i, p, a.NumRecords(), b.NumRecords())
			}
		}
	})
}

// TestLabelsMatchEntityIDs: a pair is labelled 1 exactly when the two
// records carry the same non-empty entity id — the labelling stage
// must agree with a direct recomputation from the records.
func TestLabelsMatchEntityIDs(t *testing.T) {
	testkit.Run(t, "pipeline/label-consistency", 8, func(pt *testkit.T) {
		a, b := testkit.DatabasePair(pt.Rng, pt.Size*3+6)
		d := pipeline.Build(a, b, pipeline.BuildSpec{Name: "p"}, nil)
		if len(d.Y) == 0 {
			return // no true matches survived blocking-free truth derivation
		}
		for i, p := range d.Pairs {
			ra, rb := a.Records[p.A], b.Records[p.B]
			want := 0
			if ra.EntityID != "" && ra.EntityID == rb.EntityID {
				want = 1
			}
			if d.Y[i] != want {
				pt.Errorf("pair %d (%s, %s): label %d, entity ids say %d",
					i, ra.ID, rb.ID, d.Y[i], want)
				return
			}
		}
	})
}

// TestComparePairPermutationEquivariance: the comparison stage maps
// each pair to its feature row independently, so permuting the
// candidate pairs permutes the matrix rows — and the labelling stage
// commutes with the same permutation.
func TestComparePairPermutationEquivariance(t *testing.T) {
	testkit.Run(t, "pipeline/compare-permutation", 8, func(pt *testkit.T) {
		a, b := testkit.DatabasePair(pt.Rng, pt.Size*3+6)
		pairs := blocking.CandidatePairs(a, b, blocking.MinHashConfig{})
		if len(pairs) < 2 {
			return
		}
		scheme := compare.DefaultScheme(a.Schema)
		base, _ := query.CompareMatrix(context.Background(), a, b, scheme, pairs, 0)
		p := testkit.Perm(pt.Rng, len(pairs))
		permPairs := testkit.Permute(p, pairs)
		perm, _ := query.CompareMatrix(context.Background(), a, b, scheme, permPairs, 0)
		for i := range perm {
			if !testkit.EqualFloats(perm[i], base[p[i]]) {
				pt.Errorf("feature row %d does not track its pair under permutation", i)
				return
			}
		}
		truth := dataset.GroundTruth(a, b)
		if !testkit.EqualInts(dataset.LabelPairs(permPairs, truth),
			testkit.Permute(p, dataset.LabelPairs(pairs, truth))) {
			pt.Errorf("labelling does not commute with pair permutation")
		}
	})
}
