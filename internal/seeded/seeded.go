// Package seeded provides the seeded pseudo-random generator behind
// every seeded draw in this module. Its stream is exactly math/rand's:
// New(s) returns, call for call and bit for bit, what
// rand.New(rand.NewSource(s)) returns.
//
// Only the cost differs. math/rand's source fills its whole 607-word
// register when seeded: 1,841 dependent LCG steps, most of them wasted
// on callers that draw a handful of values. Here Seed only reduces the
// seed, and each register word is computed by LCG jump-ahead when a
// draw first reads it.
package seeded

import "math/rand"

// math/rand's additive lagged-Fibonacci source: a register of rngLen
// words, each draw adding the word rngTap places behind the feed
// into the feed word. Its seeding LCG is x ← 48271·x mod (2³¹−1), and
// register word i is built from LCG steps lcgSkip+3i+1 … lcgSkip+3i+3.
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1 // the LCG modulus, a Mersenne prime
	lcgMul   = 48271
	lcgSkip  = 20

	// fillDraws is the number of draws after which every register
	// word has been read: draw n < fillDraws reads the feed word
	// rngLen−rngTap−1−n and the tap word rngLen−1−n.
	fillDraws = rngLen - rngTap
)

// pow[i] is lcgMul^(lcgSkip+3i+1) mod int32max, the multiplier that
// jumps a reduced seed to the first LCG step of register word i.
var pow = powers()

// cooked is math/rand's rngCooked table, the value XORed into the LCG
// bits of each register word.
var cooked = recoverCooked()

// New returns a generator seeded with seed whose every method returns
// what rand.New(rand.NewSource(seed)) returns. Its Seed method re-seeds
// it in constant time. Like math/rand's sources, it is not safe for
// concurrent use.
func New(seed int64) *rand.Rand {
	s := new(source)
	s.Seed(seed)
	return rand.New(s)
}

// source is a rand.Source64 that returns math/rand's rngSource stream
// and fills its register lazily: before draw n < fillDraws, fillNext
// computes the words that draw reads for the first time.
type source struct {
	tap, feed int
	// filled counts the draws whose words are in vec; it stops at
	// fillDraws, once every word is.
	filled int
	// x0 is the reduced seed, the LCG's starting value.
	x0  uint64
	vec [rngLen]int64
}

// Seed reduces seed as math/rand does and empties the register.
func (s *source) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.tap, s.feed, s.filled = 0, fillDraws, 0
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *source) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// Uint64 returns a pseudo-random 64-bit integer.
func (s *source) Uint64() uint64 {
	if s.filled < fillDraws {
		s.fillNext()
	}
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// fillNext fills the words draw n = s.filled reads first: its feed
// word, and its tap word while n < rngTap. From draw rngTap on, the
// tap reaches words the feed has already filled and rewritten.
func (s *source) fillNext() {
	n := s.filled
	i := fillDraws - 1 - n
	s.vec[i] = int64(lcgWord(s.x0, i)) ^ cooked[i]
	if n < rngTap {
		i = rngLen - 1 - n
		s.vec[i] = int64(lcgWord(s.x0, i)) ^ cooked[i]
	}
	s.filled++
}

// lcgWord returns the LCG bits of register word i for reduced seed x0,
// as math/rand's Seed combines them from three consecutive LCG steps
// x₁, x₂, x₃: x₁<<40 ^ x₂<<20 ^ x₃, the shifts truncated to 64 bits.
func lcgWord(x0 uint64, i int) uint64 {
	x := mulMod(x0, pow[i])
	u := x << 40
	x = mulMod(x, lcgMul)
	u ^= x << 20
	x = mulMod(x, lcgMul)
	return u ^ x
}

// mulMod returns a·b mod 2³¹−1 for a, b < 2³¹−1. Since 2³¹ ≡ 1, the
// product's high and low 31-bit halves add to it modulo 2³¹−1, and
// their sum is below twice the modulus.
func mulMod(a, b uint64) uint64 {
	p := a * b
	r := p&int32max + p>>31
	if r >= int32max {
		r -= int32max
	}
	return r
}

// powers builds pow by stepping the LCG from 1.
func powers() (pow [rngLen]uint64) {
	x := uint64(1)
	for k := 0; k <= lcgSkip; k++ {
		x = mulMod(x, lcgMul)
	}
	for i := range pow {
		pow[i] = x
		x = mulMod(mulMod(mulMod(x, lcgMul), lcgMul), lcgMul)
	}
	return pow
}

// recoverCooked recovers math/rand's rngCooked from the first rngLen
// outputs of rand.NewSource(1). In rngLen draws every word is the feed
// once and keeps that draw's output, so the outputs give the final
// register. Undoing the draws in reverse, each subtracting its tap
// word from its feed word, gives the seeded register, and XORing out
// seed 1's LCG bits leaves rngCooked.
func recoverCooked() (cooked [rngLen]int64) {
	feed := func(n int) int { return (fillDraws - 1 - n + rngLen) % rngLen }
	tap := func(n int) int { return rngLen - 1 - n }
	src := rand.NewSource(1).(rand.Source64)
	var vec [rngLen]int64
	for n := 0; n < rngLen; n++ {
		vec[feed(n)] = int64(src.Uint64())
	}
	for n := rngLen - 1; n >= 0; n-- {
		vec[feed(n)] -= vec[tap(n)]
	}
	for i := range cooked {
		cooked[i] = vec[i] ^ int64(lcgWord(1, i))
	}
	return cooked
}
