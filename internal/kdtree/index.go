package kdtree

import "sort"

// flatLeafSize is the point count below which a subtree becomes one
// contiguous leaf block. Leaves of ~16 points keep the tree shallow
// while the per-leaf scan stays a linear walk over one or two cache
// lines per point.
const flatLeafSize = 16

// WeightedIndex answers instance-level k-NN queries over a point
// matrix with one weighted query over its unique vectors (Uniq): for
// any query q and k, KNN returns exactly BruteKNN(points, q, k, nil),
// and KNNExcept the same scan with one row excluded — bitwise,
// including (distance, id) tie order. Duplicate rows are bitwise equal
// to their unique vector, so per-instance distances are identical and
// the weighted query's distance-closed cover expands to the canonical
// instance prefix (DESIGN.md §10). A duplicate group therefore costs
// one point instead of being re-scanned by every query.
//
// The index is a k-d tree with a cache-friendly layout: node metadata
// lives in small parallel arrays and every unique vector's
// coordinates are copied into one contiguous float64 buffer in tree
// order, so queries scan leaf blocks linearly instead of chasing
// per-node pointers. Squared distances accumulate coordinate by
// coordinate in BruteKNN's order with the same float64 operations, and
// the far-subtree prune is the single-axis diff*diff <= worst test
// with equality explored, so distance ties resolve canonically. Two
// classic refinements were tried on the real comparison matrices and
// reverted as net losses, so the index deliberately has neither:
// bounding-box node pruning (the box bound almost never beats the
// single-axis test once that test has passed, and its O(dim) cost
// per gate slowed queries) and leaf-scan early exit on the partial
// sum (the bound is typically only exceeded in the last coordinates,
// so the per-coordinate branch cost more than the skipped work).
//
// Coordinates are stored as float64, not float32: narrowing the
// storage would change distance rounding and break the exactness
// contract.
//
// The index is immutable after NewWeightedIndex; queries are
// goroutine-safe.
type WeightedIndex struct {
	set *WeightedSet
	dim int
	// Per-node parallel arrays; node 0 is the root. axis < 0 marks a
	// leaf, whose points occupy slots [start, start+count).
	axis         []int32
	split        []float64
	left, right  []int32
	start, count []int32
	// Per-slot arrays in tree order: ids maps a slot to its unique
	// vector, coords holds the slot's dim coordinates contiguously,
	// weights the vector's multiplicity.
	ids     []int32
	coords  []float64
	weights []int32
}

// NewWeightedIndex builds the index over the set's unique vectors,
// each weighted by its member count. Coordinates are copied. An empty
// set yields a usable empty index whose queries return no results.
func NewWeightedIndex(s *WeightedSet) *WeightedIndex {
	ix := &WeightedIndex{set: s}
	n := len(s.Vecs)
	if n == 0 {
		return ix
	}
	ix.dim = len(s.Vecs[0])
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	ix.buildNode(s.Vecs, perm, 0, n, 0)
	ix.ids = perm
	ix.coords = make([]float64, n*ix.dim)
	ix.weights = make([]int32, n)
	for slot, id := range perm {
		copy(ix.coords[slot*ix.dim:], s.Vecs[id])
		ix.weights[slot] = int32(len(s.Members[id]))
	}
	return ix
}

// buildNode recursively lays out the subtree over perm[lo:hi] and
// returns its node index. Internal nodes split at the median of the
// depth's axis; the median coordinate goes to the split plane and the
// points partition around it, so the standard per-axis prune bound
// holds on both sides.
func (ix *WeightedIndex) buildNode(points [][]float64, perm []int32, lo, hi, depth int) int32 {
	id := int32(len(ix.axis))
	if hi-lo <= flatLeafSize {
		ix.axis = append(ix.axis, -1)
		ix.split = append(ix.split, 0)
		ix.left = append(ix.left, -1)
		ix.right = append(ix.right, -1)
		ix.start = append(ix.start, int32(lo))
		ix.count = append(ix.count, int32(hi-lo))
		return id
	}
	ax := depth % ix.dim
	sub := perm[lo:hi]
	sort.Slice(sub, func(i, j int) bool {
		return points[sub[i]][ax] < points[sub[j]][ax]
	})
	mid := (lo + hi) / 2
	ix.axis = append(ix.axis, int32(ax))
	ix.split = append(ix.split, points[perm[mid]][ax])
	ix.left = append(ix.left, -1)
	ix.right = append(ix.right, -1)
	ix.start = append(ix.start, 0)
	ix.count = append(ix.count, 0)
	l := ix.buildNode(points, perm, lo, mid, depth+1)
	r := ix.buildNode(points, perm, mid, hi, depth+1)
	ix.left[id] = l
	ix.right[id] = r
	return id
}

// weightedNeighbour is one weighted k-NN result: a unique vector
// covering weight coincident instances at squared distance dist2.
type weightedNeighbour struct {
	id     int
	dist2  float64
	weight int
}

// wWorse reports whether a ranks strictly after b in (distance, id)
// order.
func wWorse(a, b weightedNeighbour) bool {
	if a.dist2 != b.dist2 {
		return a.dist2 > b.dist2
	}
	return a.id > b.id
}

// wCollector keeps the minimal prefix of points, in (distance, id)
// order grouped by distance, whose weights cover w instances: every
// point strictly closer than the w-th nearest instance's distance D*
// plus every point tied at D*. Whole distance classes are kept or
// evicted together, so the boundary class always survives intact —
// the caller slices the exact instance set out of it.
type wCollector struct {
	h    []weightedNeighbour // max-heap by (distance, id)
	cumW int
	w    int
	tied []weightedNeighbour // class-eviction scratch
}

func (c *wCollector) full() bool { return c.cumW >= c.w }

func (c *wCollector) add(id int, d2 float64, weight int) {
	if c.full() && d2 > c.h[0].dist2 {
		return
	}
	c.push(weightedNeighbour{id: id, dist2: d2, weight: weight})
	c.cumW += weight
	c.evict()
}

func (c *wCollector) push(n weightedNeighbour) {
	c.h = append(c.h, n)
	i := len(c.h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !wWorse(c.h[i], c.h[p]) {
			break
		}
		c.h[i], c.h[p] = c.h[p], c.h[i]
		i = p
	}
}

func (c *wCollector) pop() weightedNeighbour {
	top := c.h[0]
	last := len(c.h) - 1
	c.h[0] = c.h[last]
	c.h = c.h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(c.h) && wWorse(c.h[l], c.h[m]) {
			m = l
		}
		if r < len(c.h) && wWorse(c.h[r], c.h[m]) {
			m = r
		}
		if m == i {
			break
		}
		c.h[i], c.h[m] = c.h[m], c.h[i]
		i = m
	}
	return top
}

// evict drops maximal whole distance classes while the remaining
// weight still covers w. A class is droppable only when every member
// sits strictly beyond D*; a class intersecting the boundary is
// pushed back untouched.
func (c *wCollector) evict() {
	for len(c.h) > 0 {
		// Cheap guard: the top entry's own weight bounds its class
		// weight from below, so if even that cannot be spared, no
		// class can be dropped.
		if c.cumW-c.h[0].weight < c.w {
			return
		}
		top := c.h[0].dist2
		c.tied = c.tied[:0]
		tw := 0
		for len(c.h) > 0 && c.h[0].dist2 == top {
			e := c.pop()
			c.tied = append(c.tied, e)
			tw += e.weight
		}
		if c.cumW-tw >= c.w {
			c.cumW -= tw
			continue
		}
		for _, e := range c.tied {
			c.push(e)
		}
		return
	}
}

// groups returns, sorted ascending by (distance, id), every unique
// vector strictly closer than the w-th nearest instance's distance
// plus every vector tied at it. The result therefore always covers at
// least w instances (when the index holds that many) and is the
// smallest distance-closed set that does.
func (ix *WeightedIndex) groups(q []float64, w int) []weightedNeighbour {
	if w <= 0 || len(ix.ids) == 0 {
		return nil
	}
	c := wCollector{h: make([]weightedNeighbour, 0, w+8), w: w}
	ix.search(0, q, &c)
	out := c.h
	sort.Slice(out, func(i, j int) bool {
		if out[i].dist2 != out[j].dist2 {
			return out[i].dist2 < out[j].dist2
		}
		return out[i].id < out[j].id
	})
	return out
}

func (ix *WeightedIndex) search(node int32, q []float64, c *wCollector) {
	if ix.axis[node] < 0 {
		lo := int(ix.start[node])
		base := lo * ix.dim
		for p := 0; p < int(ix.count[node]); p++ {
			row := ix.coords[base+p*ix.dim : base+(p+1)*ix.dim]
			s := 0.0
			for i, v := range q {
				d := v - row[i]
				s += d * d
			}
			c.add(int(ix.ids[lo+p]), s, int(ix.weights[lo+p]))
		}
		return
	}
	diff := q[ix.axis[node]] - ix.split[node]
	near, far := ix.left[node], ix.right[node]
	if diff > 0 {
		near, far = far, near
	}
	ix.search(near, q, c)
	if !c.full() || diff*diff <= c.h[0].dist2 {
		ix.search(far, q, c)
	}
}

// KNN returns the k nearest original rows of q by (distance, id),
// bitwise equal to BruteKNN over the original matrix with no
// exclusion. Only the first k members of any one group can survive
// the final cut, so expansion is capped per group and the total work
// beyond the weighted query is O(k log k).
func (ix *WeightedIndex) KNN(q []float64, k int) []Neighbour {
	if k <= 0 {
		return nil
	}
	out := make([]Neighbour, 0, k+8)
	for _, g := range ix.groups(q, k) {
		mem := ix.set.Members[g.id]
		if len(mem) > k {
			mem = mem[:k]
		}
		for _, id := range mem {
			out = append(out, Neighbour{ID: int(id), Dist2: g.dist2})
		}
	}
	sortNeighbours(out)
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// KNNExcept returns the k nearest original rows of q other than row
// self, bitwise equal to BruteKNN with self excluded. It queries k+1
// rows: if self is among them the rest are the answer, otherwise
// dropping self from the tail would change nothing, so the first k
// are (the derivation the SEL selector's decideVector relies on).
func (ix *WeightedIndex) KNNExcept(q []float64, k, self int) []Neighbour {
	if k <= 0 {
		return nil
	}
	nn := ix.KNN(q, k+1)
	for i, n := range nn {
		if n.ID == self {
			return append(nn[:i], nn[i+1:]...)
		}
	}
	if len(nn) > k {
		nn = nn[:k]
	}
	return nn
}
