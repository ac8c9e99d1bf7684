// Package embed provides deterministic hashed word embeddings standing
// in for the pre-trained FastText vectors used by the DR baseline
// (Thirumuruganathan et al., 2018). Each word token hashes to a fixed
// pseudo-random unit vector, mimicking a pre-trained lookup table: two
// occurrences of the same token share a vector, while out-of-vocabulary
// variations (typos, abbreviations — ubiquitous in structured personal
// data) map to unrelated vectors. This reproduces the OOV failure mode
// the paper identifies as the cause of DR's negative transfer.
package embed

import (
	"hash/fnv"
	"math"
	"math/rand"

	"transer/internal/seeded"
	"transer/internal/strutil"
)

// Embedder maps strings to dense vectors. It memoises token vectors,
// so it is not safe for concurrent use, and Dim and Seed must not
// change once it has embedded a value.
type Embedder struct {
	// Dim is the embedding dimensionality.
	Dim int
	// Seed decorrelates embedders.
	Seed int64

	// words memoises word: tokens recur across values.
	words map[string][]float64
	// rng is re-seeded for every distinct token.
	rng *rand.Rand
}

// New creates an embedder with the given dimensionality; dim must be
// positive.
func New(dim int, seed int64) *Embedder {
	if dim <= 0 {
		panic("embed: dimension must be positive")
	}
	return &Embedder{Dim: dim, Seed: seed}
}

// hashVec maps a string to a deterministic pseudo-random unit vector.
func (e *Embedder) hashVec(s string) []float64 {
	f := fnv.New64a()
	f.Write([]byte(s))
	seed := int64(f.Sum64()) ^ e.Seed
	if e.rng == nil {
		e.rng = seeded.New(seed)
	} else {
		e.rng.Seed(seed)
	}
	v := make([]float64, e.Dim)
	norm := 0.0
	for i := range v {
		v[i] = e.rng.NormFloat64()
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

// word embeds a single token. The returned vector is shared; callers
// must not modify it.
func (e *Embedder) word(tok string) []float64 {
	if v, ok := e.words[tok]; ok {
		return v
	}
	if e.words == nil {
		e.words = map[string][]float64{}
	}
	v := e.hashVec("w:" + tok)
	e.words[tok] = v
	return v
}

// Value embeds a full attribute value as the mean of its token
// embeddings; an empty value embeds to the zero vector.
func (e *Embedder) Value(s string) []float64 {
	toks := strutil.Tokens(s)
	out := make([]float64, e.Dim)
	if len(toks) == 0 {
		return out
	}
	for _, t := range toks {
		tv := e.word(t)
		for i := range out {
			out[i] += tv[i]
		}
	}
	inv := 1 / float64(len(toks))
	for i := range out {
		out[i] *= inv
	}
	return out
}

// PairFeaturesOf builds the distributed representation of a pair of
// embedded values: the element-wise absolute difference of the two
// embeddings followed by their cosine similarity, giving Dim+1
// features. Callers embed each distinct value once with Value.
func (e *Embedder) PairFeaturesOf(va, vb []float64) []float64 {
	out := make([]float64, e.Dim+1)
	var dot, na, nb float64
	for i := 0; i < e.Dim; i++ {
		out[i] = math.Abs(va[i] - vb[i])
		dot += va[i] * vb[i]
		na += va[i] * va[i]
		nb += vb[i] * vb[i]
	}
	if na > 0 && nb > 0 {
		// Rescale cosine from [-1,1] into [0,1] to match the rest of
		// the feature space.
		out[e.Dim] = (dot/(math.Sqrt(na)*math.Sqrt(nb)) + 1) / 2
	}
	return out
}
