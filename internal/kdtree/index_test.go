package kdtree_test

// Differential and property suite for the unique-vector weighted
// index (DESIGN.md §10). Its contract is exact — bitwise equality with
// the brute-force scan, (distance, id) ties included — so every
// assertion compares with ==. Duplicate-heavy inputs come from
// testkit.GridMatrix plus forced verbatim duplicate groups, the regime
// the weighted index exists for.

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

// TestKNNExceptMatchesBrute: excluding one row from a k-NN query is
// bitwise the brute-force scan with that row filtered out, on
// duplicate-heavy grid matrices with many distance ties. Queries at
// the excluded row's own vector put it inside the k+1 window; queries
// elsewhere often leave it beyond; k ranges past n. Both window cases
// must occur over the run.
func TestKNNExceptMatchesBrute(t *testing.T) {
	inside, beyond := 0, 0
	testkit.Run(t, "kdtree/except-vs-brute", 16, func(pt *testkit.T) {
		n := 3*pt.Size + 8
		m := 1 + pt.Rng.Intn(4)
		pts := dupGridMatrix(pt, n, m)
		ix := kdtree.NewWeightedIndex(kdtree.Uniq(pts))
		for trial := 0; trial < 6; trial++ {
			self := pt.Rng.Intn(n)
			q := pts[self]
			switch trial % 3 {
			case 1:
				q = pts[pt.Rng.Intn(n)]
			case 2:
				q = testkit.GridMatrix(pt.Rng, 1, m)[0]
			}
			k := 1 + pt.Rng.Intn(n+2)
			if trial%2 == 1 {
				k = 1 + pt.Rng.Intn(3)
			}
			inWindow := false
			for _, nb := range kdtree.BruteKNN(pts, q, k+1, nil) {
				inWindow = inWindow || nb.ID == self
			}
			if inWindow {
				inside++
			} else {
				beyond++
			}
			got := ix.KNNExcept(q, k, self)
			want := kdtree.BruteKNN(pts, q, k, func(id int) bool { return id == self })
			if !neighboursEqual(got, want) {
				pt.Errorf("KNNExcept(k=%d, self=%d) disagrees with brute force:\nindex %v\nbrute %v", k, self, got, want)
				return
			}
		}
	})
	if inside == 0 || beyond == 0 {
		t.Errorf("excluded row inside the k+1 window %d times, beyond it %d times; want both", inside, beyond)
	}
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
	pts := [][]float64{{0.2, 0.4}, {0.2, 0.4}, {0.8, 0.1}}
	ix := kdtree.NewWeightedIndex(kdtree.Uniq(pts))
	if got := ix.KNN(pts[0], 0); got != nil {
		t.Errorf("k=0 KNN = %v, want nil", got)
	}
	if got, want := ix.KNN(pts[0], 10), kdtree.BruteKNN(pts, pts[0], 10, nil); !neighboursEqual(got, want) {
		t.Errorf("k beyond instance count: %v, want %v", got, want)
	}
	if got := ix.KNN(pts[0], 2); len(got) != 2 || got[0].ID != 0 || got[1].ID != 1 {
		t.Errorf("KNN = %v, want both members of the duplicate group", got)
	}
}
