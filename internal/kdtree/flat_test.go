package kdtree_test

// Differential and property suite for the flattened weighted tree
// and the unique-vector weighted index (DESIGN.md §10). The contract
// of both is exact — bitwise equality with the pointer tree and the
// brute-force scan, (distance, id) ties included — so every assertion
// compares with ==. Duplicate-heavy inputs come from testkit.GridMatrix plus
// forced verbatim duplicate groups, the regime the weighted index
// exists for.

import (
	"testing"

	"transer/internal/kdtree"
	"transer/internal/testkit"
)

// dupGridMatrix generates a grid matrix with extra forced verbatim
// duplicate rows, so every trial contains multi-member groups.
func dupGridMatrix(pt *testkit.T, n, m int) [][]float64 {
	pts := testkit.GridMatrix(pt.Rng, n, m)
	for k := 0; k < n/2; k++ {
		pts[pt.Rng.Intn(n)] = pts[pt.Rng.Intn(n)]
	}
	return pts
}

// TestFlatKNNMatchesTree: the weighted index over the flattened tree
// answers instance-level k-NN bitwise identically to the pointer Tree
// that the per-instance SEL definition queries, on continuous, grid
// and duplicate-heavy matrices, including k > n.
func TestFlatKNNMatchesTree(t *testing.T) {
	testkit.Run(t, "kdtree/flat-vs-tree", 16, func(pt *testkit.T) {
		n := 3*pt.Size + 8
		m := 1 + pt.Rng.Intn(4)
		var pts [][]float64
		switch pt.Rng.Intn(3) {
		case 0:
			pts = testkit.Matrix(pt.Rng, n, m)
		case 1:
			pts = testkit.GridMatrix(pt.Rng, n, m)
		default:
			pts = dupGridMatrix(pt, n, m)
		}
		tree := kdtree.Build(pts)
		ix := kdtree.NewWeightedIndex(kdtree.Uniq(pts))
		k := 1 + pt.Rng.Intn(n+2)
		for trial := 0; trial < 5; trial++ {
			q := pts[pt.Rng.Intn(n)]
			if trial%2 == 0 {
				q = testkit.Matrix(pt.Rng, 1, m)[0]
			}
			got := ix.KNN(q, k)
			want := tree.KNN(q, k, nil)
			if !neighboursEqual(got, want) {
				pt.Errorf("WeightedIndex.KNN(k=%d) disagrees with Tree.KNN:\nflat %v\ntree %v", k, got, want)
				return
			}
		}
	})
}

// TestWeightedIndexKNNMatchesBrute: the multiplicity-aware unique-
// vector k-NN expands to exactly the brute-force instance-level
// answer over the duplicated input — the core exactness property of
// the SEL fast path.
func TestWeightedIndexKNNMatchesBrute(t *testing.T) {
	testkit.Run(t, "kdtree/weighted-vs-brute", 16, func(pt *testkit.T) {
		n := 3*pt.Size + 8
		m := 1 + pt.Rng.Intn(4)
		pts := dupGridMatrix(pt, n, m)
		ix := kdtree.NewWeightedIndex(kdtree.Uniq(pts))
		for trial := 0; trial < 4; trial++ {
			q := pts[pt.Rng.Intn(n)]
			if trial%2 == 0 {
				q = testkit.GridMatrix(pt.Rng, 1, m)[0]
			}
			k := 1 + pt.Rng.Intn(n+2)
			got := ix.KNN(q, k)
			want := kdtree.BruteKNN(pts, q, k, nil)
			if !neighboursEqual(got, want) {
				pt.Errorf("WeightedIndex.KNN(k=%d) disagrees with brute force:\nindex %v\nbrute %v", k, got, want)
				return
			}
		}
	})
}

// TestKNNWeightedCounts: the weighted query returns exactly the
// distance-closed cover of the k nearest instances — every unique
// vector strictly inside the k-th instance distance D*, every vector
// tied at D*, nothing beyond — with multiplicities matching the brute
// instance counts.
func TestKNNWeightedCounts(t *testing.T) {
	testkit.Run(t, "kdtree/weighted-counts", 16, func(pt *testkit.T) {
		n := 3*pt.Size + 8
		m := 1 + pt.Rng.Intn(3)
		pts := dupGridMatrix(pt, n, m)
		set := kdtree.Uniq(pts)
		weights := make([]int, set.Len())
		for u, mem := range set.Members {
			weights[u] = len(mem)
		}
		flat := kdtree.BuildFlatWeighted(set.Vecs, weights)
		q := testkit.GridMatrix(pt.Rng, 1, m)[0]
		k := 1 + pt.Rng.Intn(n)

		got := flat.KNNWeighted(q, k)

		// Brute oracle: D* is the k-th smallest instance distance over
		// the duplicated rows; the expected cover is every unique
		// vector with distance <= D*.
		all := kdtree.BruteKNN(pts, q, n, nil)
		dstar := all[k-1].Dist2
		direct := make([]float64, set.Len())
		for _, nb := range kdtree.BruteKNN(set.Vecs, q, set.Len(), nil) {
			direct[nb.ID] = nb.Dist2
		}
		wantCover := map[int]int{}
		for u := range set.Vecs {
			if direct[u] <= dstar {
				wantCover[u] = len(set.Members[u])
			}
		}
		if len(got) != len(wantCover) {
			pt.Errorf("cover size %d, want %d (D*=%v)\ngot %v\nwant %v", len(got), len(wantCover), dstar, got, wantCover)
			return
		}
		cum := 0
		for i, g := range got {
			w, ok := wantCover[g.ID]
			if !ok || w != g.Weight {
				pt.Errorf("group %d: id=%d weight=%d not in expected cover %v", i, g.ID, g.Weight, wantCover)
				return
			}
			if g.Dist2 != direct[g.ID] {
				pt.Errorf("group %d: distance %v differs from direct %v", i, g.Dist2, direct[g.ID])
				return
			}
			if i > 0 {
				prev := got[i-1]
				if prev.Dist2 > g.Dist2 || (prev.Dist2 == g.Dist2 && prev.ID >= g.ID) {
					pt.Errorf("groups not in (distance, id) order at %d: %v then %v", i, prev, g)
					return
				}
			}
			cum += g.Weight
		}
		if cum < k {
			pt.Errorf("cover weight %d does not reach k=%d", cum, k)
		}
	})
}

// TestUniqGroups: Uniq groups rows exactly by bitwise vector
// equality, first-occurrence order, ascending members, with signed
// zeros in distinct groups.
func TestUniqGroups(t *testing.T) {
	testkit.Run(t, "kdtree/uniq", 12, func(pt *testkit.T) {
		n := 2*pt.Size + 6
		m := 1 + pt.Rng.Intn(3)
		pts := dupGridMatrix(pt, n, m)
		set := kdtree.Uniq(pts)
		if set.Rows() != n {
			pt.Fatalf("Rows() = %d, want %d", set.Rows(), n)
		}
		seen := map[string]bool{}
		var key []byte
		covered := 0
		for u, v := range set.Vecs {
			key = kdtree.VectorKey(key[:0], v)
			if seen[string(key)] {
				pt.Fatalf("unique vector %d repeats an earlier group", u)
			}
			seen[string(key)] = true
			mem := set.Members[u]
			if len(mem) == 0 {
				pt.Fatalf("group %d empty", u)
			}
			for i, id := range mem {
				var rk []byte
				rk = kdtree.VectorKey(rk, pts[id])
				if string(rk) != string(key) {
					pt.Fatalf("group %d member %d is not bitwise equal to the group vector", u, id)
				}
				if i > 0 && mem[i-1] >= id {
					pt.Fatalf("group %d members not ascending: %v", u, mem)
				}
			}
			covered += len(mem)
		}
		if covered != n {
			pt.Fatalf("groups cover %d rows, want %d", covered, n)
		}
	})
}

// TestFlatEdgeCases pins the degenerate inputs of the weighted index:
// an empty index, k <= 0, and k covering the whole instance set.
func TestFlatEdgeCases(t *testing.T) {
	empty := kdtree.NewWeightedIndex(kdtree.Uniq(nil))
	if got := empty.KNN([]float64{1}, 3); len(got) != 0 {
		t.Errorf("empty index KNN = %v, want none", got)
	}
	if got := empty.Groups([]float64{1}, 3); got != nil {
		t.Errorf("empty index Groups = %v, want nil", got)
	}
	pts := [][]float64{{0.2, 0.4}, {0.2, 0.4}, {0.8, 0.1}}
	ix := kdtree.NewWeightedIndex(kdtree.Uniq(pts))
	if got := ix.KNN(pts[0], 0); got != nil {
		t.Errorf("k=0 KNN = %v, want nil", got)
	}
	if got := ix.Groups(pts[0], 0); got != nil {
		t.Errorf("k=0 Groups = %v, want nil", got)
	}
	if got, want := ix.KNN(pts[0], 10), kdtree.BruteKNN(pts, pts[0], 10, nil); !neighboursEqual(got, want) {
		t.Errorf("k beyond instance count: %v, want %v", got, want)
	}
	groups := ix.Groups(pts[0], 2)
	if len(groups) != 1 || groups[0].Weight != 2 {
		t.Errorf("Groups = %v, want the single duplicate group of weight 2", groups)
	}
}
