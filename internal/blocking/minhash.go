// Package blocking reduces the quadratic record pair comparison space
// to a candidate set B ⊂ R × R. The primary technique is MinHash-based
// locality sensitive hashing over character q-gram shingles, the
// blocking approach the paper uses (Section 5.1.1, [47]): records whose
// shingle sets have high Jaccard similarity collide in at least one
// LSH band with high probability and become a candidate pair.
//
// Index is the incremental form of the same blocking for streams, and
// KMV a cardinality sketch over the same token hashing.
package blocking

import (
	"hash/fnv"
	"math/rand"

	"transer/internal/dataset"
	"transer/internal/strutil"
)

// MinHashConfig parameterises LSH blocking.
type MinHashConfig struct {
	// NumHashes is the MinHash signature length; it must be divisible
	// by Bands. Default 64.
	NumHashes int
	// Bands is the number of LSH bands; rows per band r =
	// NumHashes/Bands sets the similarity threshold ≈ (1/Bands)^(1/r).
	// Default 16.
	Bands int
	// Q is the q-gram length for shingling. Default 3.
	Q int
	// Attrs selects which attribute indices contribute shingles; nil
	// means all attributes.
	Attrs []int
	// Seed drives the random hash coefficients. Blocking with equal
	// configs is deterministic.
	Seed int64
	// MaxBucketSize skips LSH buckets larger than this (stop-word
	// buckets that would explode the candidate set); 0 means 200 and a
	// negative value disables the cap entirely. Uncapped blocking is
	// what the streaming equivalence contract builds on: candidate
	// membership then depends only on record content, never on how many
	// other records happen to share a bucket (see internal/stream).
	MaxBucketSize int
}

// Normalized returns the config with every defaulted field resolved
// to its effective value. Two configs that block identically normalise
// to the same value, which is what cache fingerprints must hash (the
// zero config and an explicitly spelled-out default are the same
// blocking computation).
func (c MinHashConfig) Normalized() MinHashConfig { return c.withDefaults() }

func (c MinHashConfig) withDefaults() MinHashConfig {
	if c.NumHashes == 0 {
		c.NumHashes = 60
	}
	if c.Bands == 0 {
		// r = 3 rows per band puts the LSH threshold near Jaccard 0.37,
		// admitting the moderately similar non-matches that give ER its
		// characteristic class imbalance (Table 1: ~2/3 non-matches)
		// without exploding the candidate set.
		c.Bands = 20
	}
	if c.Q == 0 {
		c.Q = 3
	}
	if c.MaxBucketSize == 0 {
		c.MaxBucketSize = 200
	}
	if c.NumHashes%c.Bands != 0 {
		panic("blocking: NumHashes must be divisible by Bands")
	}
	return c
}

const mersennePrime = (1 << 61) - 1

// minHasher computes MinHash signatures with the standard family
// h_i(x) = (a_i * x + b_i) mod p.
type minHasher struct {
	a, b []uint64
}

func newMinHasher(n int, seed int64) *minHasher {
	rng := rand.New(rand.NewSource(seed))
	h := &minHasher{a: make([]uint64, n), b: make([]uint64, n)}
	for i := 0; i < n; i++ {
		h.a[i] = uint64(rng.Int63n(mersennePrime-1)) + 1
		h.b[i] = uint64(rng.Int63n(mersennePrime))
	}
	return h
}

// signature computes the MinHash signature of a shingle set. An empty
// set yields the all-max signature, which collides only with other
// empty sets.
func (h *minHasher) signature(shingles map[uint64]bool) []uint64 {
	sig := make([]uint64, len(h.a))
	for i := range sig {
		sig[i] = ^uint64(0)
	}
	for s := range shingles {
		x := s % mersennePrime
		for i := range sig {
			v := (h.a[i]*x + h.b[i]) % mersennePrime
			if v < sig[i] {
				sig[i] = v
			}
		}
	}
	return sig
}

// shingleSet builds the hashed q-gram shingle set of a record over the
// selected attributes.
func shingleSet(r dataset.Record, attrs []int, q int) map[uint64]bool {
	set := make(map[uint64]bool)
	add := func(v string) {
		for _, g := range strutil.QGrams(v, q) {
			f := fnv.New64a()
			f.Write([]byte(g))
			set[f.Sum64()] = true
		}
	}
	if attrs == nil {
		for _, v := range r.Values {
			add(v)
		}
		return set
	}
	for _, j := range attrs {
		if j >= 0 && j < len(r.Values) {
			add(r.Values[j])
		}
	}
	return set
}

// bandKey hashes one signature band into a bucket key.
func bandKey(band int, sig []uint64) uint64 {
	f := fnv.New64a()
	var buf [8]byte
	buf[0] = byte(band)
	f.Write(buf[:1])
	for _, v := range sig {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		f.Write(buf[:])
	}
	return f.Sum64()
}

// CandidatePairs blocks two databases with MinHash LSH and returns the
// deduplicated candidate record pairs in deterministic order.
func CandidatePairs(a, b *dataset.Database, cfg MinHashConfig) []dataset.Pair {
	cfg = cfg.withDefaults()
	hasher := newMinHasher(cfg.NumHashes, cfg.Seed)
	rows := cfg.NumHashes / cfg.Bands

	type bucket struct{ aIDs, bIDs []int }
	buckets := make(map[uint64]*bucket)

	process := func(db *dataset.Database, side int) {
		for i, r := range db.Records {
			sig := hasher.signature(shingleSet(r, cfg.Attrs, cfg.Q))
			for band := 0; band < cfg.Bands; band++ {
				key := bandKey(band, sig[band*rows:(band+1)*rows])
				bk := buckets[key]
				if bk == nil {
					bk = &bucket{}
					buckets[key] = bk
				}
				if side == 0 {
					bk.aIDs = append(bk.aIDs, i)
				} else {
					bk.bIDs = append(bk.bIDs, i)
				}
			}
		}
	}
	process(a, 0)
	process(b, 1)

	set := make(dataset.PairSet)
	for _, bk := range buckets {
		if len(bk.aIDs) == 0 || len(bk.bIDs) == 0 {
			continue
		}
		if cfg.MaxBucketSize > 0 && len(bk.aIDs)+len(bk.bIDs) > cfg.MaxBucketSize {
			continue
		}
		for _, ai := range bk.aIDs {
			for _, bi := range bk.bIDs {
				set.Add(ai, bi)
			}
		}
	}
	return set.Sorted()
}

// PairsCompleteness returns the fraction of true matches retained by
// the candidate pairs (blocking recall), the standard blocking quality
// measure.
func PairsCompleteness(pairs []dataset.Pair, truth dataset.PairSet) float64 {
	if len(truth) == 0 {
		return 1
	}
	found := 0
	for _, p := range pairs {
		if truth[p] {
			found++
		}
	}
	return float64(found) / float64(len(truth))
}

// ReductionRatio returns 1 - |candidates| / |A×B|, the fraction of the
// full comparison space removed by blocking.
func ReductionRatio(pairs []dataset.Pair, a, b *dataset.Database) float64 {
	total := float64(len(a.Records)) * float64(len(b.Records))
	if total == 0 {
		return 0
	}
	return 1 - float64(len(pairs))/total
}
