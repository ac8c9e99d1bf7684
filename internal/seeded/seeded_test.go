package seeded

import (
	"math"
	"math/rand"
	"testing"
)

// oracleSeeds covers math/rand's seed reduction: zero (replaced by
// 89482311), ±1, ±(2³¹−1) and its multiples (each reducing to zero),
// the neighbours of the modulus, 89482311 itself and the int64 extremes.
var oracleSeeds = []int64{
	0, 1, -1, 2, 42, 89482311, -89482311,
	int32max, -int32max, 2 * int32max, -2 * int32max, 1000 * int32max,
	int32max - 1, int32max + 1, -int32max - 1, 1 << 31, -1 << 31,
	math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1,
	-6723495872348, 0x5deece66d, 1<<62 + 12345,
}

// oracleDraws crosses every point where the register's indexing
// changes: the tap reaching rewritten words (273), the last lazily
// filled word (334) and the first wrap of both indices (607).
const oracleDraws = 3000

// sameStream fails t unless got and want return the same n outputs.
func sameStream(t *testing.T, name string, got, want rand.Source64, n int) {
	t.Helper()
	for k := 0; k < n; k++ {
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("%s: output %d = %#x, math/rand %#x", name, k, g, w)
		}
	}
}

// mathRand returns math/rand's own source for seed, the oracle.
func mathRand(seed int64) rand.Source64 {
	return rand.NewSource(seed).(rand.Source64)
}

// TestSourceBitwiseMatchesMathRand: from every oracle seed, the first
// 3,000 outputs, read through Uint64 and Int63 alternately, equal
// math/rand's.
func TestSourceBitwiseMatchesMathRand(t *testing.T) {
	for _, seed := range oracleSeeds {
		got, want := new(source), mathRand(seed)
		got.Seed(seed)
		for k := 0; k < oracleDraws; k++ {
			if k%2 == 0 {
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("seed %d: Uint64 %d = %#x, math/rand %#x", seed, k, g, w)
				}
			} else if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d: Int63 %d = %#x, math/rand %#x", seed, k, g, w)
			}
		}
	}
}

// TestReseedBitwiseMatchesMathRand: a source re-seeded after any
// number of draws, on either side of each indexing change, continues
// exactly as a fresh math/rand source with the new seed.
func TestReseedBitwiseMatchesMathRand(t *testing.T) {
	for _, k := range []int{0, 1, 272, 273, 274, 333, 334, 335, 606, 607, 608, 5000} {
		for _, seeds := range [][2]int64{{1, 2}, {7, 7}, {math.MinInt64, 0}, {int32max, -3}} {
			s := new(source)
			s.Seed(seeds[0])
			for i := 0; i < k; i++ {
				s.Uint64()
			}
			s.Seed(seeds[1])
			sameStream(t, "re-seeded", s, mathRand(seeds[1]), 2000)
		}
	}
}

// TestRandMethodsBitwiseMatchMathRand: through rand.New, every method
// this module calls returns what it returns on math/rand's source,
// interleaved over thousands of draws and across Rand.Seed.
func TestRandMethodsBitwiseMatchMathRand(t *testing.T) {
	for _, seed := range oracleSeeds {
		got, want := New(seed), rand.New(rand.NewSource(seed))
		for round := 0; round < 2; round++ {
			for k := 0; k < 400; k++ {
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("seed %d: Int63 = %d, math/rand %d", seed, g, w)
				}
				if g, w := got.Int63n(1e12+7), want.Int63n(1e12+7); g != w {
					t.Fatalf("seed %d: Int63n = %d, math/rand %d", seed, g, w)
				}
				if g, w := got.Intn(k+1), want.Intn(k+1); g != w {
					t.Fatalf("seed %d: Intn(%d) = %d, math/rand %d", seed, k+1, g, w)
				}
				if g, w := got.Float64(), want.Float64(); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("seed %d: Float64 = %v, math/rand %v", seed, g, w)
				}
				if g, w := got.NormFloat64(), want.NormFloat64(); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("seed %d: NormFloat64 = %v, math/rand %v", seed, g, w)
				}
			}
			gp, wp := got.Perm(50), want.Perm(50)
			for i := range gp {
				if gp[i] != wp[i] {
					t.Fatalf("seed %d: Perm = %v, math/rand %v", seed, gp, wp)
				}
			}
			got.Seed(seed ^ 0x5bd1e995)
			want.Seed(seed ^ 0x5bd1e995)
		}
	}
}

// FuzzSourceMatchesMathRand: for any seed, a source re-seeded after
// any number of draws gives math/rand's stream for the new seed.
func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Add(int64(0), uint16(0))
	f.Add(int64(-1), uint16(273))
	f.Add(int64(int32max), uint16(334))
	f.Add(int64(math.MinInt64), uint16(607))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		s := new(source)
		s.Seed(^seed)
		for i := 0; i < int(draws)%2000; i++ {
			s.Uint64()
		}
		s.Seed(seed)
		sameStream(t, "fuzzed", s, mathRand(seed), 1000)
	})
}

var sinkNorm float64

// BenchmarkSeed: a fresh seed plus 8 NormFloat64 draws, the work of
// one embedded token. math_rand seeds a new math/rand source, as every
// seeded site did; new builds a generator here, as a tree does;
// reseed re-seeds one generator, as an Embedder does.
func BenchmarkSeed(b *testing.B) {
	draw := func(rng *rand.Rand) {
		for j := 0; j < 8; j++ {
			sinkNorm += rng.NormFloat64()
		}
	}
	b.Run("math_rand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			draw(rand.New(rand.NewSource(int64(i))))
		}
	})
	b.Run("new", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			draw(New(int64(i)))
		}
	})
	b.Run("reseed", func(b *testing.B) {
		b.ReportAllocs()
		rng := New(0)
		for i := 0; i < b.N; i++ {
			rng.Seed(int64(i))
			draw(rng)
		}
	})
}
