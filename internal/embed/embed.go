// Package embed provides deterministic hashed word embeddings standing
// in for the pre-trained FastText vectors used by the DR baseline
// (Thirumuruganathan et al., 2018). Each word token hashes to a fixed
// pseudo-random unit vector, mimicking a pre-trained lookup table: two
// occurrences of the same token share a vector, while out-of-vocabulary
// variations (typos, abbreviations — ubiquitous in structured personal
// data) map to unrelated vectors. This reproduces the OOV failure mode
// the paper identifies as the cause of DR's negative transfer. An
// optional subword component blends in character n-gram vectors for
// FastText-style subword sharing.
package embed

import (
	"hash/fnv"
	"math"
	"math/rand"

	"transer/internal/strutil"
)

// Embedder maps strings to dense vectors.
type Embedder struct {
	// Dim is the embedding dimensionality.
	Dim int
	// SubwordWeight in [0, 1] blends character trigram vectors into
	// each word vector (0 = pure word hashing, FastText-OOV-failure
	// mode; 1 = pure subword).
	SubwordWeight float64
	// Seed decorrelates embedders.
	Seed int64
}

// New creates an embedder with the given dimensionality; dim must be
// positive.
func New(dim int, subwordWeight float64, seed int64) *Embedder {
	if dim <= 0 {
		panic("embed: dimension must be positive")
	}
	return &Embedder{Dim: dim, SubwordWeight: subwordWeight, Seed: seed}
}

// hashVec maps a string to a deterministic pseudo-random unit vector.
func (e *Embedder) hashVec(s string) []float64 {
	f := fnv.New64a()
	f.Write([]byte(s))
	rng := rand.New(rand.NewSource(int64(f.Sum64()) ^ e.Seed))
	v := make([]float64, e.Dim)
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

// Word embeds a single token, blending word-level and subword vectors
// per SubwordWeight.
func (e *Embedder) Word(tok string) []float64 {
	wv := e.hashVec("w:" + tok)
	if e.SubwordWeight <= 0 {
		return wv
	}
	grams := strutil.QGrams(tok, 3)
	if len(grams) == 0 {
		return wv
	}
	sv := make([]float64, e.Dim)
	for _, g := range grams {
		gv := e.hashVec("g:" + g)
		for i := range sv {
			sv[i] += gv[i]
		}
	}
	inv := 1 / float64(len(grams))
	out := make([]float64, e.Dim)
	w := e.SubwordWeight
	for i := range out {
		out[i] = (1-w)*wv[i] + w*sv[i]*inv
	}
	return out
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
		tv := e.Word(t)
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

// PairFeatures builds the distributed representation of a value pair:
// the element-wise absolute difference of the two value embeddings
// followed by their cosine similarity, giving Dim+1 features.
func (e *Embedder) PairFeatures(a, b string) []float64 {
	return e.PairFeaturesOf(e.Value(a), e.Value(b))
}

// PairFeaturesOf is PairFeatures on two already embedded values, for
// callers that embed each distinct value once.
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

// Cosine returns the cosine similarity of two embedded values in
// [-1, 1] (0 when either embeds to zero).
func (e *Embedder) Cosine(a, b string) float64 {
	va := e.Value(a)
	vb := e.Value(b)
	var dot, na, nb float64
	for i := range va {
		dot += va[i] * vb[i]
		na += va[i] * va[i]
		nb += vb[i] * vb[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}
