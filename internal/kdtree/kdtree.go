// Package kdtree implements exact k-nearest-neighbour search over
// dense float64 points. Its one index, WeightedIndex, is a flattened
// k-d tree (Bentley, 1975) over the distinct vectors of a point set,
// each weighted by its multiplicity. It answers every neighbourhood
// query in the system: the TransER instance selector (paper Eqs. 1–2),
// the LocIT* baseline and DR's density-ratio weights.
//
// Results are canonical: the k smallest neighbours under (distance,
// id) order, bitwise equal to the BruteKNN scan, which stays as the
// test oracle.
package kdtree

import (
	"math"
	"sort"
)

// Neighbour is one k-NN result: the point's index in the original
// slice and its squared Euclidean distance to the query.
type Neighbour struct {
	ID    int
	Dist2 float64
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// sortNeighbours orders nn ascending by (distance, id).
func sortNeighbours(nn []Neighbour) {
	sort.Slice(nn, func(i, j int) bool {
		if nn[i].Dist2 != nn[j].Dist2 {
			return nn[i].Dist2 < nn[j].Dist2
		}
		return nn[i].ID < nn[j].ID
	})
}

// BruteKNN is the reference O(n) nearest-neighbour scan: the k
// smallest points by (distance, id), skipping ids exclude reports.
// Tests use it as the oracle for WeightedIndex.
func BruteKNN(points [][]float64, q []float64, k int, exclude func(id int) bool) []Neighbour {
	if k <= 0 {
		return nil
	}
	all := make([]Neighbour, 0, len(points))
	for i, p := range points {
		if exclude != nil && exclude(i) {
			continue
		}
		all = append(all, Neighbour{ID: i, Dist2: sqDist(q, p)})
	}
	sortNeighbours(all)
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// Centroid returns the component-wise mean of the points referenced by
// the neighbour list. It is the quantity that Equation (2) of the
// paper compares between the source and target neighbourhoods. An
// empty neighbour list yields the zero vector.
func Centroid(points [][]float64, nn []Neighbour, dim int) []float64 {
	c := make([]float64, dim)
	if len(nn) == 0 {
		return c
	}
	for _, n := range nn {
		p := points[n.ID]
		for j := range c {
			c[j] += p[j]
		}
	}
	inv := 1 / float64(len(nn))
	for j := range c {
		c[j] *= inv
	}
	return c
}

// Dist returns the Euclidean distance between two equal-length vectors.
func Dist(a, b []float64) float64 { return math.Sqrt(sqDist(a, b)) }
