package kdtree

import (
	"math"
	"sort"
)

// VectorKey appends an exact byte encoding of vec to dst and returns
// the extended slice: 8 bytes per coordinate, the little-endian
// Float64bits of each value in order. The encoding is injective on
// bit patterns — two vectors map to the same key exactly when every
// coordinate is bitwise identical — and fixed-width, so keys of
// equal-dimension vectors never collide by concatenation ambiguity.
//
// Note the bit-level view deliberately distinguishes +0.0 from -0.0
// (and every NaN payload): signed zeros form separate dedup groups at
// distance zero of each other, which grouping by key handles
// correctly because coincident groups resolve to identical
// neighbourhoods.
func VectorKey(dst []byte, vec []float64) []byte {
	for _, v := range vec {
		bits := math.Float64bits(v)
		dst = append(dst,
			byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24),
			byte(bits>>32), byte(bits>>40), byte(bits>>48), byte(bits>>56))
	}
	return dst
}

// WeightedSet is the unique-vector view of a point matrix: Vecs holds
// the first occurrence of every distinct (bitwise) vector in input
// order, Members the ascending original row indices carrying it. The
// multiplicity of unique vector u is len(Members[u]).
type WeightedSet struct {
	Vecs    [][]float64
	Members [][]int32
}

// Uniq groups the rows of points by exact (bitwise) vector equality.
// Row slices are referenced, not copied.
func Uniq(points [][]float64) *WeightedSet {
	s := &WeightedSet{}
	index := make(map[string]int, len(points))
	var key []byte
	for i, p := range points {
		key = VectorKey(key[:0], p)
		u, ok := index[string(key)]
		if !ok {
			u = len(s.Vecs)
			index[string(key)] = u
			s.Vecs = append(s.Vecs, p)
			s.Members = append(s.Members, nil)
		}
		s.Members[u] = append(s.Members[u], int32(i))
	}
	return s
}

// Len returns the number of unique vectors.
func (s *WeightedSet) Len() int { return len(s.Vecs) }

// Rows returns the total number of original rows.
func (s *WeightedSet) Rows() int {
	n := 0
	for _, m := range s.Members {
		n += len(m)
	}
	return n
}

// WeightedIndex answers instance-level k-NN queries over the original
// matrix with one weighted query over its unique vectors: the SEL
// selector's core data structure (DESIGN.md §10). For any query q
// and k, KNN returns exactly BruteKNN(points, q, k, nil) — bitwise,
// including (distance, id) tie order — because duplicate rows are
// bitwise equal to their unique vector, so per-instance distances are
// identical and the weighted query's distance-closed cover expands to
// the canonical instance prefix.
type WeightedIndex struct {
	Set  *WeightedSet
	flat *Flat
}

// NewWeightedIndex builds the weighted flattened tree over the set's
// unique vectors.
func NewWeightedIndex(s *WeightedSet) *WeightedIndex {
	weights := make([]int, len(s.Vecs))
	for u, m := range s.Members {
		weights[u] = len(m)
	}
	return &WeightedIndex{Set: s, flat: BuildFlatWeighted(s.Vecs, weights)}
}

// Groups returns the distance-closed unique-vector cover of the k
// nearest instances of q (see Flat.KNNWeighted); IDs index Set.Vecs.
func (ix *WeightedIndex) Groups(q []float64, k int) []WeightedNeighbour {
	return ix.flat.KNNWeighted(q, k)
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
	groups := ix.flat.KNNWeighted(q, k)
	out := make([]Neighbour, 0, k+8)
	for _, g := range groups {
		mem := ix.Set.Members[g.ID]
		take := len(mem)
		if take > k {
			take = k
		}
		for _, id := range mem[:take] {
			out = append(out, Neighbour{ID: int(id), Dist2: g.Dist2})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist2 != out[j].Dist2 {
			return out[i].Dist2 < out[j].Dist2
		}
		return out[i].ID < out[j].ID
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}
