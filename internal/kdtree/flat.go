package kdtree

import "sort"

// flatLeafSize is the point count below which a subtree becomes one
// contiguous leaf block. Leaves of ~16 points keep the tree shallow
// while the per-leaf scan stays a linear walk over one or two cache
// lines per point.
const flatLeafSize = 16

// Flat is a weighted k-d tree with a cache-friendly layout: node
// metadata lives in small parallel arrays and every point's
// coordinates are copied into one contiguous float64 buffer in tree
// order, so queries scan leaf blocks linearly instead of chasing
// per-node point pointers. Indexed point i stands for Weight(i)
// coincident instances: KNNWeighted answers instance-level k-NN
// questions with one query over the deduplicated points (the SEL
// selector, DESIGN.md §10, through WeightedIndex).
//
// Distances are bitwise-identical to Tree's and BruteKNN's: squared
// distances accumulate coordinate-by-coordinate in the same order with
// the same float64 operations, ties resolve canonically under
// (distance, id), and the far-subtree prune uses the same single-axis
// diff*diff <= worst test with equality explored. Two classic
// refinements were tried on the real comparison matrices and
// reverted as net losses, so Flat deliberately has neither:
// bounding-box node pruning (the box bound almost never beats the
// single-axis test once that test has passed, and its O(dim) cost
// per gate slowed queries) and leaf-scan early exit on the partial
// sum (the bound is typically only exceeded in the last coordinates,
// so the per-coordinate branch cost more than the skipped work).
// The win over Tree comes from the layout alone.
//
// Exactness note: coordinates are stored as float64, not float32.
// Narrowing the storage would change distance rounding and break the
// SEL exactness contract (DESIGN.md §10); the win comes from the
// blocked layout, not reduced precision.
//
// The tree is immutable after BuildFlatWeighted; queries are
// goroutine-safe.
type Flat struct {
	dim int
	// Per-node parallel arrays; node 0 is the root. axis < 0 marks a
	// leaf, whose points occupy slots [start, start+count).
	axis         []int32
	split        []float64
	left, right  []int32
	start, count []int32
	// Per-slot arrays in tree order: ids maps a slot to the original
	// point index, coords holds the slot's dim coordinates
	// contiguously, weights the slot's multiplicity (nil = all 1).
	ids     []int32
	coords  []float64
	weights []int32
}

// BuildFlatWeighted constructs a flattened k-d tree where point i
// stands for weights[i] coincident instances (every weight must be
// >= 1). A nil weights slice means all weights are 1. Coordinates are
// copied; the input may be mutated afterwards. All points must share
// the same dimensionality. An empty point set yields a usable empty
// tree whose queries return no results.
func BuildFlatWeighted(points [][]float64, weights []int) *Flat {
	f := &Flat{}
	if len(points) == 0 {
		return f
	}
	f.dim = len(points[0])
	perm := make([]int32, len(points))
	for i := range perm {
		perm[i] = int32(i)
	}
	f.buildNode(points, perm, 0, len(points), 0)
	f.ids = perm
	f.coords = make([]float64, len(points)*f.dim)
	for slot, id := range perm {
		copy(f.coords[slot*f.dim:], points[id])
	}
	if weights != nil {
		f.weights = make([]int32, len(perm))
		for slot, id := range perm {
			f.weights[slot] = int32(weights[id])
		}
	}
	return f
}

// buildNode recursively lays out the subtree over perm[lo:hi] and
// returns its node index. Internal nodes split at the median of the
// depth's axis; the median coordinate goes to the split plane and the
// points partition around it, so the standard per-axis prune bound
// holds on both sides.
func (f *Flat) buildNode(points [][]float64, perm []int32, lo, hi, depth int) int32 {
	id := int32(len(f.axis))
	if hi-lo <= flatLeafSize {
		f.axis = append(f.axis, -1)
		f.split = append(f.split, 0)
		f.left = append(f.left, -1)
		f.right = append(f.right, -1)
		f.start = append(f.start, int32(lo))
		f.count = append(f.count, int32(hi-lo))
		return id
	}
	ax := depth % f.dim
	sub := perm[lo:hi]
	sort.Slice(sub, func(i, j int) bool {
		return points[sub[i]][ax] < points[sub[j]][ax]
	})
	mid := (lo + hi) / 2
	f.axis = append(f.axis, int32(ax))
	f.split = append(f.split, points[perm[mid]][ax])
	f.left = append(f.left, -1)
	f.right = append(f.right, -1)
	f.start = append(f.start, 0)
	f.count = append(f.count, 0)
	l := f.buildNode(points, perm, lo, mid, depth+1)
	r := f.buildNode(points, perm, mid, hi, depth+1)
	f.left[id] = l
	f.right[id] = r
	return id
}

// WeightedNeighbour is one weighted k-NN result: a point covering
// Weight coincident instances at squared distance Dist2.
type WeightedNeighbour struct {
	ID     int
	Dist2  float64
	Weight int
}

// wWorse reports whether a ranks strictly after b in (distance, id)
// order.
func wWorse(a, b WeightedNeighbour) bool {
	if a.Dist2 != b.Dist2 {
		return a.Dist2 > b.Dist2
	}
	return a.ID > b.ID
}

// wCollector keeps the minimal prefix of points, in (distance, id)
// order grouped by distance, whose weights cover w instances: every
// point strictly closer than the w-th nearest instance's distance D*
// plus every point tied at D*. Whole distance classes are kept or
// evicted together, so the boundary class always survives intact —
// the caller slices the exact instance set out of it.
type wCollector struct {
	h    []WeightedNeighbour // max-heap by (distance, id)
	cumW int
	w    int
	tied []WeightedNeighbour // class-eviction scratch
}

func (c *wCollector) full() bool { return c.cumW >= c.w }

func (c *wCollector) add(id int, d2 float64, weight int) {
	if c.full() && d2 > c.h[0].Dist2 {
		return
	}
	c.push(WeightedNeighbour{ID: id, Dist2: d2, Weight: weight})
	c.cumW += weight
	c.evict()
}

func (c *wCollector) push(n WeightedNeighbour) {
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

func (c *wCollector) pop() WeightedNeighbour {
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
		if c.cumW-int(c.h[0].Weight) < c.w {
			return
		}
		top := c.h[0].Dist2
		c.tied = c.tied[:0]
		tw := 0
		for len(c.h) > 0 && c.h[0].Dist2 == top {
			e := c.pop()
			c.tied = append(c.tied, e)
			tw += e.Weight
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

// KNNWeighted treats indexed point i as Weight(i) coincident
// instances and returns, sorted ascending by (distance, id), every
// point strictly closer than the w-th nearest instance's distance
// plus every point tied at it. The result therefore always covers at
// least w instances (when the tree holds that many) and is the
// smallest distance-closed set that does.
func (f *Flat) KNNWeighted(q []float64, w int) []WeightedNeighbour {
	if w <= 0 || len(f.ids) == 0 {
		return nil
	}
	c := wCollector{h: make([]WeightedNeighbour, 0, w+8), w: w}
	f.searchW(0, q, &c)
	out := c.h
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist2 != out[j].Dist2 {
			return out[i].Dist2 < out[j].Dist2
		}
		return out[i].ID < out[j].ID
	})
	return out
}

func (f *Flat) searchW(node int32, q []float64, c *wCollector) {
	if f.axis[node] < 0 {
		lo := int(f.start[node])
		base := lo * f.dim
		for p := 0; p < int(f.count[node]); p++ {
			row := f.coords[base+p*f.dim : base+(p+1)*f.dim]
			s := 0.0
			for i, v := range q {
				d := v - row[i]
				s += d * d
			}
			weight := 1
			if f.weights != nil {
				weight = int(f.weights[lo+p])
			}
			c.add(int(f.ids[lo+p]), s, weight)
		}
		return
	}
	diff := q[f.axis[node]] - f.split[node]
	near, far := f.left[node], f.right[node]
	if diff > 0 {
		near, far = far, near
	}
	f.searchW(near, q, c)
	if !c.full() || diff*diff <= c.h[0].Dist2 {
		f.searchW(far, q, c)
	}
}
