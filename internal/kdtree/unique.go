package kdtree

import "math"

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
