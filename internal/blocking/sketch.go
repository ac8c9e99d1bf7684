package blocking

import (
	"hash/fnv"
	"math"
	"sort"
)

// KMV is a k-minimum-values cardinality sketch over a hashed token
// stream: it keeps the k smallest 64-bit hashes seen and estimates the
// number of distinct tokens from the k-th smallest value. It reuses the
// FNV-1a token hashing that MinHash blocking shingles with, so a sketch
// and an LSH index built over the same values agree on what a "token"
// is. The zero value is not useful; construct with NewKMV.
//
// The estimator is the classical (k-1)/h_(k) with hashes mapped to
// (0, 1]: unbiased for distinct counts well above k, exact below k
// (fewer than k distinct hashes means the sketch has seen them all).
type KMV struct {
	k    int
	min  []uint64 // max-heap of the k smallest hashes seen
	seen map[uint64]bool
}

// NewKMV returns an empty sketch keeping the k smallest hashes
// (k <= 0 defaults to 64; larger k trades memory for accuracy —
// the relative standard error is about 1/sqrt(k-2)).
func NewKMV(k int) *KMV {
	if k <= 0 {
		k = 64
	}
	return &KMV{k: k, seen: make(map[uint64]bool)}
}

// AddToken hashes one token into the sketch.
func (s *KMV) AddToken(tok string) {
	f := fnv.New64a()
	f.Write([]byte(tok))
	s.AddHash(f.Sum64())
}

// AddHash inserts one pre-hashed token. Duplicate hashes are ignored,
// which is what makes the estimate a distinct count. The hash is run
// through a splitmix64 finaliser first: the estimator needs uniformity
// across the full 64-bit range, which raw FNV-1a of short tokens does
// not deliver.
func (s *KMV) AddHash(h uint64) {
	s.addMixed(mix64(h))
}

// mix64 is the splitmix64 finaliser.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// addMixed inserts a hash AddHash has already run through mix64.
func (s *KMV) addMixed(h uint64) {
	// Map away the (vanishingly unlikely) zero hash so the estimator's
	// division is always defined.
	if h == 0 {
		h = 1
	}
	if s.seen[h] {
		return
	}
	if len(s.min) >= s.k && h >= s.min[0] {
		return
	}
	s.seen[h] = true
	s.min = append(s.min, h)
	s.up(len(s.min) - 1)
	if len(s.min) > s.k {
		evicted := s.min[0]
		last := len(s.min) - 1
		s.min[0] = s.min[last]
		s.min = s.min[:last]
		s.down(0)
		delete(s.seen, evicted)
	}
}

func (s *KMV) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if s.min[p] >= s.min[i] {
			return
		}
		s.min[p], s.min[i] = s.min[i], s.min[p]
		i = p
	}
}

func (s *KMV) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < len(s.min) && s.min[l] > s.min[big] {
			big = l
		}
		if r < len(s.min) && s.min[r] > s.min[big] {
			big = r
		}
		if big == i {
			return
		}
		s.min[i], s.min[big] = s.min[big], s.min[i]
		i = big
	}
}

// Hashes returns the kept minimum hashes in ascending order (a copy).
// These are the finalised (splitmix64-mixed) values, so hash lists from
// two sketches built with the same k are directly comparable: the
// model repository persists them in domain signatures and estimates
// token-set Jaccard from the lists alone (the classical KMV set
// estimator over the k smallest hashes of the union).
func (s *KMV) Hashes() []uint64 {
	out := make([]uint64, len(s.min))
	copy(out, s.min)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// K returns the sketch size parameter.
func (s *KMV) K() int { return s.k }

// Estimate returns the estimated number of distinct tokens added.
func (s *KMV) Estimate() float64 {
	if len(s.min) < s.k {
		// The sketch holds every distinct hash seen so far.
		return float64(len(s.min))
	}
	kth := float64(s.min[0]) / float64(math.MaxUint64)
	return float64(s.k-1) / kth
}
