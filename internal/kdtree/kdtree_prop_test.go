package kdtree_test

// Property suite for the k-NN index, driven by internal/testkit. The
// index's contract is exact: KNN and KNNExcept return the k smallest
// neighbours in the canonical (distance, id) order, so every assertion
// compares against the brute-force reference with == — on continuous
// matrices (no ties) and on grid matrices (heavy ties and signed
// zeros) alike.

import (
	"testing"

	"transer/internal/kdtree"
	"transer/internal/testkit"
)

func neighboursEqual(a, b []kdtree.Neighbour) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestKNNMatchesBruteForce checks that the index agrees with the O(n)
// scan on both value regimes, with and without an excluded row, for
// queries drawn both from the indexed points and from fresh
// locations.
func TestKNNMatchesBruteForce(t *testing.T) {
	testkit.Run(t, "kdtree/knn-vs-brute", 16, func(pt *testkit.T) {
		n := 3*pt.Size + 8
		m := 1 + pt.Rng.Intn(4)
		pts := testkit.Matrix(pt.Rng, n, m)
		if pt.Rng.Intn(2) == 0 {
			pts = testkit.GridMatrix(pt.Rng, n, m)
		}
		ix := kdtree.NewWeightedIndex(kdtree.Uniq(pts))
		k := 1 + pt.Rng.Intn(n+2) // deliberately allowed to exceed n
		banned := -1
		if pt.Rng.Intn(2) == 0 {
			banned = pt.Rng.Intn(n)
		}
		exclude := func(id int) bool { return id == banned }
		for trial := 0; trial < 5; trial++ {
			q := pts[pt.Rng.Intn(n)]
			if trial%2 == 0 {
				q = testkit.Matrix(pt.Rng, 1, m)[0]
			}
			got := ix.KNNExcept(q, k, banned)
			want := kdtree.BruteKNN(pts, q, k, exclude)
			if !neighboursEqual(got, want) {
				pt.Errorf("KNNExcept(k=%d, self=%d) disagrees with brute force:\nindex %v\nbrute %v", k, banned, got, want)
				return
			}
		}
	})
}

// TestKNNPermutationRelabelling: rebuilding the index on permuted
// points returns the same neighbours under id relabelling whenever the
// query's distances are tie-free (continuous matrices), because the
// canonical order then reduces to distance order.
func TestKNNPermutationRelabelling(t *testing.T) {
	testkit.Run(t, "kdtree/knn-permutation", 12, func(pt *testkit.T) {
		n := 3*pt.Size + 8
		m := 2 + pt.Rng.Intn(3)
		pts := testkit.Matrix(pt.Rng, n, m)
		p := testkit.Perm(pt.Rng, n)
		ix := kdtree.NewWeightedIndex(kdtree.Uniq(pts))
		permIx := kdtree.NewWeightedIndex(kdtree.Uniq(testkit.Permute(p, pts)))
		k := 1 + pt.Rng.Intn(n)
		q := testkit.Matrix(pt.Rng, 1, m)[0]
		base := ix.KNN(q, k)
		perm := permIx.KNN(q, k)
		if len(base) != len(perm) {
			pt.Fatalf("neighbour counts differ: %d vs %d", len(base), len(perm))
		}
		for i := range base {
			if perm[i].Dist2 != base[i].Dist2 || p[perm[i].ID] != base[i].ID {
				pt.Errorf("neighbour %d maps to original id %d (dist %v), want id %d (dist %v)",
					i, p[perm[i].ID], perm[i].Dist2, base[i].ID, base[i].Dist2)
				return
			}
		}
	})
}

// TestCentroidMatchesDirectMean: the centroid over a full neighbour
// list equals the running mean computed independently, and an empty
// list yields the zero vector.
func TestCentroidMatchesDirectMean(t *testing.T) {
	testkit.Run(t, "kdtree/centroid", 10, func(pt *testkit.T) {
		n := pt.Size + 2
		m := 1 + pt.Rng.Intn(4)
		pts := testkit.Matrix(pt.Rng, n, m)
		nn := make([]kdtree.Neighbour, n)
		for i := range nn {
			nn[i] = kdtree.Neighbour{ID: i}
		}
		got := kdtree.Centroid(pts, nn, m)
		for j := 0; j < m; j++ {
			sum := 0.0
			for i := range pts {
				sum += pts[i][j]
			}
			if want := sum * (1 / float64(n)); got[j] != want {
				pt.Errorf("centroid[%d] = %v, want %v", j, got[j], want)
				return
			}
		}
		for _, v := range kdtree.Centroid(pts, nil, m) {
			if v != 0 {
				pt.Fatalf("empty neighbour list gave non-zero centroid %v", v)
			}
		}
	})
}

// TestDistProperties: Dist is symmetric, zero on identical vectors,
// and satisfies the triangle inequality (up to one ulp of slack for
// the square-root rounding).
func TestDistProperties(t *testing.T) {
	testkit.Run(t, "kdtree/dist", 12, func(pt *testkit.T) {
		m := 1 + pt.Rng.Intn(5)
		x := testkit.Matrix(pt.Rng, 3, m)
		a, b, c := x[0], x[1], x[2]
		if kdtree.Dist(a, b) != kdtree.Dist(b, a) {
			pt.Errorf("distance not symmetric")
		}
		if kdtree.Dist(a, a) != 0 {
			pt.Errorf("non-zero self distance %v", kdtree.Dist(a, a))
		}
		if kdtree.Dist(a, c) > kdtree.Dist(a, b)+kdtree.Dist(b, c)+1e-12 {
			pt.Errorf("triangle inequality violated: d(a,c)=%v > %v + %v",
				kdtree.Dist(a, c), kdtree.Dist(a, b), kdtree.Dist(b, c))
		}
	})
}
