package kdtree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"transer/internal/testkit"
)

func randomPoints(rng *rand.Rand, n, d int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts[i] = p
	}
	return pts
}

func index(points [][]float64) *WeightedIndex { return NewWeightedIndex(Uniq(points)) }

func TestEmptyTree(t *testing.T) {
	ix := index(nil)
	if nn := ix.KNN([]float64{0.5}, 3); len(nn) != 0 {
		t.Errorf("empty index KNN should return nothing, got %v", nn)
	}
	if nn := ix.KNNExcept([]float64{0.5}, 3, 0); len(nn) != 0 {
		t.Errorf("empty index KNNExcept should return nothing, got %v", nn)
	}
}

func TestSinglePoint(t *testing.T) {
	ix := index([][]float64{{0.25, 0.75}})
	nn := ix.KNN([]float64{0, 0}, 1)
	if len(nn) != 1 || nn[0].ID != 0 {
		t.Fatalf("KNN = %v", nn)
	}
	want := 0.25*0.25 + 0.75*0.75
	if math.Abs(nn[0].Dist2-want) > 1e-12 {
		t.Errorf("Dist2 = %v, want %v", nn[0].Dist2, want)
	}
	if nn := ix.KNNExcept([]float64{0, 0}, 1, 0); len(nn) != 0 {
		t.Errorf("excluding the only point should yield nothing, got %v", nn)
	}
}

func TestKNNMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 2, 7, 50, 200} {
		for _, d := range []int{1, 2, 4, 8} {
			pts := randomPoints(rng, n, d)
			ix := index(pts)
			for trial := 0; trial < 10; trial++ {
				q := make([]float64, d)
				for j := range q {
					q[j] = rng.Float64()
				}
				for _, k := range []int{1, 3, n, n + 5} {
					got := ix.KNN(q, k)
					want := BruteKNN(pts, q, k, nil)
					if len(got) != len(want) {
						t.Fatalf("n=%d d=%d k=%d: got %d results, want %d", n, d, k, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("n=%d d=%d k=%d result %d: got %v want %v", n, d, k, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

func TestKNNExclude(t *testing.T) {
	pts := [][]float64{{0, 0}, {1, 1}, {2, 2}}
	ix := index(pts)
	// Exclude the exact query point (id 0).
	nn := ix.KNNExcept([]float64{0, 0}, 2, 0)
	if len(nn) != 2 || nn[0].ID != 1 || nn[1].ID != 2 {
		t.Errorf("exclusion failed: %v", nn)
	}
	// Self beyond the k+1 window: the first k stand.
	nn = ix.KNNExcept([]float64{0, 0}, 1, 2)
	if len(nn) != 1 || nn[0].ID != 0 {
		t.Errorf("exclusion beyond the window changed the answer: %v", nn)
	}
	// k covering every other point.
	nn = ix.KNNExcept([]float64{0, 0}, 5, 1)
	if len(nn) != 2 || nn[0].ID != 0 || nn[1].ID != 2 {
		t.Errorf("k >= n exclusion: %v", nn)
	}
}

func TestKNNZeroK(t *testing.T) {
	ix := index([][]float64{{1}, {2}})
	for _, k := range []int{0, -1} {
		if nn := ix.KNN([]float64{1.5}, k); nn != nil {
			t.Errorf("k=%d KNN should return nil", k)
		}
		if nn := ix.KNNExcept([]float64{1.5}, k, 0); nn != nil {
			t.Errorf("k=%d KNNExcept should return nil", k)
		}
	}
}

func TestDuplicatePoints(t *testing.T) {
	pts := [][]float64{{0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5}, {0.9, 0.9}}
	ix := index(pts)
	nn := ix.KNN([]float64{0.5, 0.5}, 3)
	if len(nn) != 3 {
		t.Fatalf("got %d results", len(nn))
	}
	for i, r := range nn {
		if r.Dist2 != 0 {
			t.Errorf("result %d should be exact duplicate, dist %v", i, r.Dist2)
		}
	}
	// Deterministic tie-break by id.
	if nn[0].ID != 0 || nn[1].ID != 1 || nn[2].ID != 2 {
		t.Errorf("tie-break by id failed: %v", nn)
	}
	// Excluding a middle member keeps the other duplicates in id order.
	nn = ix.KNNExcept([]float64{0.5, 0.5}, 3, 1)
	if len(nn) != 3 || nn[0].ID != 0 || nn[1].ID != 2 || nn[2].ID != 3 {
		t.Errorf("duplicate exclusion: %v", nn)
	}
}

func TestCentroid(t *testing.T) {
	pts := [][]float64{{0, 0}, {2, 4}, {4, 8}}
	nn := []Neighbour{{ID: 0}, {ID: 2}}
	c := Centroid(pts, nn, 2)
	if c[0] != 2 || c[1] != 4 {
		t.Errorf("Centroid = %v, want [2 4]", c)
	}
	empty := Centroid(pts, nil, 2)
	if empty[0] != 0 || empty[1] != 0 {
		t.Errorf("empty centroid should be zero vector")
	}
}

func TestDist(t *testing.T) {
	if d := Dist([]float64{0, 0}, []float64{3, 4}); math.Abs(d-5) > 1e-12 {
		t.Errorf("Dist = %v, want 5", d)
	}
}

func TestPropertyTreeEqualsBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(60)
		d := 1 + r.Intn(6)
		k := 1 + r.Intn(10)
		pts := randomPoints(r, n, d)
		ix := index(pts)
		q := make([]float64, d)
		for j := range q {
			q[j] = r.Float64() * 1.5
		}
		self := r.Intn(n)
		exclude := func(id int) bool { return id == self }
		return neighboursEqual(ix.KNN(q, k), BruteKNN(pts, q, k, nil)) &&
			neighboursEqual(ix.KNNExcept(q, k, self), BruteKNN(pts, q, k, exclude))
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rng}
	if err := quick.Check(prop, cfg); err != nil {
		t.Errorf("index != brute force: %v", err)
	}
}

func neighboursEqual(a, b []Neighbour) bool {
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

func BenchmarkBuild1000x8(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	pts := randomPoints(rng, 1000, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		index(pts)
	}
}

func BenchmarkKNN1000x8(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	pts := randomPoints(rng, 1000, 8)
	ix := index(pts)
	q := make([]float64, 8)
	for j := range q {
		q[j] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.KNN(q, 7)
	}
}

func TestKNNCanonicalUnderTies(t *testing.T) {
	// A ring of equidistant points: the kept subset must be the lowest
	// ids, regardless of tree layout.
	pts := [][]float64{
		{1, 0}, {0, 1}, {-1, 0}, {0, -1},
		{0.7071, 0.7071}, {-0.7071, 0.7071}, {0.7071, -0.7071}, {-0.7071, -0.7071},
	}
	nn := index(pts).KNN([]float64{0, 0}, 3)
	if len(nn) != 3 {
		t.Fatalf("got %d results", len(nn))
	}
	// The four axis points are exactly at distance 1; the diagonals at
	// ~0.99999... due to rounding — accept either, but the result must
	// equal brute force exactly.
	if want := BruteKNN(pts, []float64{0, 0}, 3, nil); !neighboursEqual(nn, want) {
		t.Fatalf("tie handling differs from canonical brute force: %v vs %v", nn, want)
	}
}

func TestKNNCanonicalWithExclusionOfDuplicates(t *testing.T) {
	// Excluding different members of a duplicate group must yield
	// neighbour sets that differ only by the swapped duplicate.
	pts := [][]float64{
		{0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5}, // duplicates
		{0.6, 0.5}, {0.4, 0.5}, {0.5, 0.6}, {0.5, 0.4}, // equidistant ring
		{0.9, 0.9},
	}
	ix := index(pts)
	q := []float64{0.5, 0.5}
	n0 := ix.KNNExcept(q, 5, 0)
	n1 := ix.KNNExcept(q, 5, 1)
	// Replace duplicate ids with a sentinel to compare the rest.
	norm := func(nn []Neighbour) []Neighbour {
		out := append([]Neighbour(nil), nn...)
		for i := range out {
			if out[i].ID <= 2 {
				out[i].ID = -1 // any duplicate is interchangeable
			}
		}
		return out
	}
	if !neighboursEqual(norm(n0), norm(n1)) {
		t.Fatalf("neighbour structure differs beyond the excluded duplicate: %v vs %v", n0, n1)
	}
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
		pts := testkit.GridMatrix(pt.Rng, n, m)
		for k := 0; k < n/2; k++ {
			pts[pt.Rng.Intn(n)] = pts[pt.Rng.Intn(n)]
		}
		set := Uniq(pts)
		q := testkit.GridMatrix(pt.Rng, 1, m)[0]
		k := 1 + pt.Rng.Intn(n)

		got := NewWeightedIndex(set).groups(q, k)

		// Brute oracle: D* is the k-th smallest instance distance over
		// the duplicated rows; the expected cover is every unique
		// vector with distance <= D*.
		dstar := BruteKNN(pts, q, n, nil)[k-1].Dist2
		direct := make([]float64, set.Len())
		for _, nb := range BruteKNN(set.Vecs, q, set.Len(), nil) {
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
			w, ok := wantCover[g.id]
			if !ok || w != g.weight {
				pt.Errorf("group %d: id=%d weight=%d not in expected cover %v", i, g.id, g.weight, wantCover)
				return
			}
			if g.dist2 != direct[g.id] {
				pt.Errorf("group %d: distance %v differs from direct %v", i, g.dist2, direct[g.id])
				return
			}
			if i > 0 {
				prev := got[i-1]
				if prev.dist2 > g.dist2 || (prev.dist2 == g.dist2 && prev.id >= g.id) {
					pt.Errorf("groups not in (distance, id) order at %d: %v then %v", i, prev, g)
					return
				}
			}
			cum += g.weight
		}
		if cum < k {
			pt.Errorf("cover weight %d does not reach k=%d", cum, k)
		}
	})
}
