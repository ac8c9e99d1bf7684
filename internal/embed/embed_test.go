package embed

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWordDeterministic(t *testing.T) {
	e := New(16, 1)
	a := e.word("smith")
	b := New(16, 1).word("smith")
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same word embedded differently at %d", i)
		}
	}
}

// TestWordMemoBitwiseMatchesHash: a memoised token vector is bit for
// bit the vector hashing the token afresh gives, on first and repeat
// lookups, and a value embeds the same through a warm or cold memo.
func TestWordMemoBitwiseMatchesHash(t *testing.T) {
	e := New(16, 3)
	toks := []string{"smith", "john", "smith", "smyth", "kilmarnock", "john", ""}
	for _, tok := range toks {
		got, want := e.word(tok), e.hashVec("w:"+tok)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("word(%q)[%d] = %v, fresh hash %v", tok, i, got[i], want[i])
			}
		}
	}
	if len(e.words) != 5 {
		t.Errorf("memo holds %d tokens, want 5 distinct", len(e.words))
	}
	warm, cold := e.Value("john smith smith"), New(16, 3).Value("john smith smith")
	for i := range cold {
		if math.Float64bits(warm[i]) != math.Float64bits(cold[i]) {
			t.Fatalf("Value through a warm memo differs at %d: %v vs %v", i, warm[i], cold[i])
		}
	}
}

// hashVecReference is hashVec as it was before the generator became
// seeded's: a fresh math/rand source per token. It is the oracle of
// TestEmbedderBitwiseMatchesMathRandOracle.
func hashVecReference(dim int, seed int64, s string) []float64 {
	f := fnv.New64a()
	f.Write([]byte(s))
	rng := rand.New(rand.NewSource(int64(f.Sum64()) ^ seed))
	v := make([]float64, dim)
	norm := 0.0
	for i := range v {
		v[i] = rng.NormFloat64()
		norm += v[i] * v[i]
	}
	norm = math.Sqrt(norm)
	if norm > 0 {
		for i := range v {
			v[i] /= norm
		}
	}
	return v
}

// TestEmbedderBitwiseMatchesMathRandOracle: one Embedder, re-seeding
// its generator for each of a few thousand distinct tokens, gives every
// word the vector a fresh math/rand source gives, bit for bit.
func TestEmbedderBitwiseMatchesMathRandOracle(t *testing.T) {
	for _, c := range []struct {
		dim  int
		seed int64
	}{{8, 0}, {8, 1}, {16, -7}, {3, math.MinInt64}, {700, 42}} {
		e := New(c.dim, c.seed)
		n := 3000
		if c.dim > 100 {
			n = 50 // 700 draws per token cross every register wrap
		}
		for k := 0; k < n; k++ {
			tok := fmt.Sprintf("tok%d-%c", k, rune('a'+k%26))
			got, want := e.word(tok), hashVecReference(c.dim, c.seed, "w:"+tok)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("dim %d seed %d: word(%q)[%d] = %v, math/rand oracle %v", c.dim, c.seed, tok, i, got[i], want[i])
				}
			}
		}
	}
}

func TestWordUnitNorm(t *testing.T) {
	e := New(16, 1)
	v := e.word("kilmarnock")
	n := 0.0
	for _, x := range v {
		n += x * x
	}
	if math.Abs(math.Sqrt(n)-1) > 1e-9 {
		t.Errorf("word vector norm %v, want 1", math.Sqrt(n))
	}
}

// cosineFeature is the last pair feature, the cosine rescaled from
// [-1, 1] into [0, 1].
func cosineFeature(e *Embedder, a, b string) float64 {
	return e.PairFeaturesOf(e.Value(a), e.Value(b))[e.Dim]
}

func TestOOVBehaviourWordLevel(t *testing.T) {
	// Pure word hashing: a one-character typo yields an unrelated
	// vector (the FastText-OOV failure mode DR reproduces), so the
	// cosine stays within [-0.5, 0.5].
	e := New(32, 1)
	if f := cosineFeature(e, "smith", "smyth"); f < 0.25 || f > 0.75 {
		t.Errorf("word-level embedding should not relate typo variants, cosine feature %v", f)
	}
}

func TestValueAveragesTokens(t *testing.T) {
	e := New(8, 1)
	v := e.Value("john smith")
	j := e.word("john")
	s := e.word("smith")
	for i := range v {
		want := (j[i] + s[i]) / 2
		if math.Abs(v[i]-want) > 1e-12 {
			t.Fatalf("value embedding is not the token mean at %d", i)
		}
	}
	zero := e.Value("")
	for _, x := range zero {
		if x != 0 {
			t.Errorf("empty value should embed to zero")
		}
	}
}

func TestPairFeatures(t *testing.T) {
	e := New(8, 1)
	v := e.Value("john smith")
	f := e.PairFeaturesOf(v, v)
	if len(f) != 9 {
		t.Fatalf("pair feature width %d, want dim+1", len(f))
	}
	for i := 0; i < 8; i++ {
		if f[i] != 0 {
			t.Errorf("identical values should have zero diff at %d", i)
		}
	}
	if math.Abs(f[8]-1) > 1e-9 {
		t.Errorf("identical values should have cosine feature 1, got %v", f[8])
	}
	// Empty pair: zero vector diff and 0 cosine feature.
	if got := cosineFeature(e, "", ""); got != 0 {
		t.Errorf("empty pair cosine feature = %v, want 0", got)
	}
}

func TestCosineRange(t *testing.T) {
	e := New(16, 2)
	prop := func(a, b string) bool {
		if len(a) > 20 {
			a = a[:20]
		}
		if len(b) > 20 {
			b = b[:20]
		}
		c := cosineFeature(e, a, b)
		return c >= -1e-9 && c <= 1+1e-9 && !math.IsNaN(c)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Errorf("cosine feature out of range: %v", err)
	}
}

func TestNewPanicsOnBadDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic for non-positive dim")
		}
	}()
	New(0, 1)
}
