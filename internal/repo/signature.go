// Package repo implements the model repository: a content-addressed
// on-disk catalog of transer.model/v1 artifacts searchable by domain
// similarity, and the selection layer that picks the best stored
// source model (or a weighted ensemble of the top k) for a new
// unlabelled target domain.
//
// Identity is the artifact fingerprint (model.Artifact.Fingerprint,
// the SHA-256 of the canonically encoded artifact); the catalog stores
// one file per fingerprint plus an atomically swapped index, and
// recovers by rescanning artifact files when the index is missing or
// stale. Search compares compact domain signatures
// (model.Signature): per-field null/distinct/token statistics, KMV
// token sketches sharing MinHash blocking's token hashing, and the
// domain's dominant quantized compare-vector centroids. Everything is
// deterministic: signatures are pure functions of the data (record
// order never matters) and search rankings are bitwise identical for
// every worker count.
//
// See DESIGN.md §14 for the layout, the signature definition, the
// selection cost model and the determinism contract.
package repo

import (
	"context"
	"errors"
	"math"
	"sort"

	"transer/internal/blocking"
	"transer/internal/compare"
	"transer/internal/dataset"
	"transer/internal/kdtree"
	"transer/internal/model"
	"transer/internal/query"
)

// MaxCentroids bounds the quantized compare-vector centroids kept in a
// signature. 32 weighted vectors cover the bulk of the pair mass of
// every builtin domain (the 0.05 quantization grid repeats heavily,
// paper Table 1) while keeping signatures a few KB.
const MaxCentroids = 32

// centroidStep re-quantizes compare vectors onto a coarse grid before
// the centroid reduction. The scheme's own 0.05 grid leaves noisy
// domains with thousands of near-unique vectors whose top-32 set is
// unstable across samples of the same domain; a 0.25 grid concentrates
// the pair mass into few cells, so the kept centroids are a stable
// fingerprint of the distribution rather than of one sample.
const centroidStep = 0.25

// decayRate is the exponential decay applied to centroid distances —
// the same e^{-5x} shape SEL's structural similarity uses
// (internal/core, Equation 2 of the paper), reused so signature
// similarity and instance transferability live on one scale.
const decayRate = 5.0

// Component weights of the combined similarity score. Field statistics
// and token overlap carry most of the weight: they exist for every
// signature and are stable under re-sampling. The centroid component
// refines the ranking when both sides carry compare vectors of the
// same dimensionality — but it sees only the top-mass cells of a
// sampled pair distribution, so it is the noisiest of the three
// between scales of the same domain and gets the smallest weight. It
// is re-weighted away entirely when either side has no centroids (see
// Similarity).
const (
	weightFields    = 0.40
	weightTokens    = 0.40
	weightCentroids = 0.20
)

// BuildSignature computes the domain signature of a database pair and
// the compare vectors of its candidate pairs (x may be nil when no
// vectors are at hand; the signature then carries no centroids). It is
// a pure function of the record and row multisets: permuting records
// or vector rows yields an identical signature.
func BuildSignature(a, b *dataset.Database, x [][]float64) *model.Signature {
	fields, sketch := fieldStats(a, b)
	sig := &model.Signature{
		Schema:      model.SignatureSchemaVersion,
		Records:     a.NumRecords(),
		Pairs:       len(x),
		SketchK:     sketch.K(),
		TokenHashes: sketch.Hashes(),
		Fields:      fields,
	}
	if b != a {
		sig.Records += b.NumRecords()
	}
	sig.Centroids = centroidsOf(x)
	return sig
}

// centroidsOf reduces a compare matrix to its MaxCentroids
// highest-multiplicity distinct vectors on the centroidStep grid,
// weighted by pair fraction. Ordering is (weight descending, vector
// bytes ascending), which is invariant under row permutation.
func centroidsOf(x [][]float64) []model.Centroid {
	if len(x) == 0 {
		return nil
	}
	coarse := make([][]float64, len(x))
	for i, row := range x {
		c := make([]float64, len(row))
		for j, v := range row {
			c[j] = math.Round(v/centroidStep) * centroidStep
		}
		coarse[i] = c
	}
	u := kdtree.Uniq(coarse)
	order := make([]int, u.Len())
	for i := range order {
		order[i] = i
	}
	keys := make([]string, u.Len())
	var buf []byte
	for i, v := range u.Vecs {
		buf = kdtree.VectorKey(buf[:0], v)
		keys[i] = string(buf)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if len(u.Members[a]) != len(u.Members[b]) {
			return len(u.Members[a]) > len(u.Members[b])
		}
		return keys[a] < keys[b]
	})
	n := len(order)
	if n > MaxCentroids {
		n = MaxCentroids
	}
	out := make([]model.Centroid, n)
	total := float64(len(x))
	for i := 0; i < n; i++ {
		ui := order[i]
		vec := make([]float64, len(u.Vecs[ui]))
		copy(vec, u.Vecs[ui])
		out[i] = model.Centroid{
			Weight: float64(len(u.Members[ui])) / total,
			Vector: vec,
		}
	}
	return out
}

// SignatureOf builds the signature of a raw database pair end to end:
// it blocks with MinHash-LSH (blocking.CandidatePairs, the same
// candidate relation training, streaming and batch queries use),
// computes the candidate compare matrix under the schema's default
// scheme, and reduces both to a signature. Pass b == nil for a dedup
// view of a single database (candidates restricted to i < j). lsh
// optionally overrides the MinHash configuration (zero value =
// blocking defaults); workers bounds the compare fan-out — the
// signature is bitwise identical for every worker count.
func SignatureOf(ctx context.Context, a, b *dataset.Database, lsh blocking.MinHashConfig, workers int) (*model.Signature, error) {
	selfJoin := b == nil || b == a
	if selfJoin {
		b = a
	}
	if !a.Schema.Equal(b.Schema) {
		return nil, errors.New("repo: databases A and B have different schemas")
	}
	pairs := blocking.CandidatePairs(a, b, lsh)
	if selfJoin {
		pairs = query.SelfJoinPairs(pairs)
	}
	x, err := query.CompareMatrix(ctx, a, b, compare.DefaultScheme(a.Schema), pairs, workers)
	if err != nil {
		return nil, err
	}
	return BuildSignature(a, b, x), nil
}

// Components breaks a similarity score into its parts (each in
// [0, 1]), returned by Search so rankings are explainable.
type Components struct {
	// SchemaOverlap is the fraction of fields matched by name and type
	// across the two signatures (over the wider schema).
	SchemaOverlap float64 `json:"schema_overlap"`
	// Fields compares null/distinct/token statistics of the matched
	// fields, scaled by SchemaOverlap.
	Fields float64 `json:"fields"`
	// Tokens is the KMV-estimated Jaccard of the two domains' token
	// vocabularies.
	Tokens float64 `json:"tokens"`
	// Centroids compares the quantized compare-vector distributions
	// (0 when either side has none or dimensionalities differ).
	Centroids float64 `json:"centroids"`
}

// Similarity scores how well a stored model's domain signature matches
// a target's signature, in [0, 1]. It is symmetric, pure, and NaN-free
// for valid signatures. When either side carries no centroids (or the
// feature dimensionalities differ, i.e. different schemas), the
// centroid weight is redistributed onto the field and token components
// so signatures without vectors still rank on the full scale.
func Similarity(target, source *model.Signature) (float64, Components) {
	var c Components
	if target == nil || source == nil {
		return 0, c
	}
	c.SchemaOverlap, c.Fields = fieldSimilarity(target.Fields, source.Fields)
	c.Tokens = tokenJaccard(target, source)
	var ok bool
	c.Centroids, ok = centroidSimilarity(target.Centroids, source.Centroids)
	if !ok {
		// Redistribute the centroid weight proportionally.
		rest := weightFields + weightTokens
		return weightFields/rest*c.Fields + weightTokens/rest*c.Tokens, c
	}
	return weightFields*c.Fields + weightTokens*c.Tokens + weightCentroids*c.Centroids, c
}

// fieldSimilarity matches fields by (name, type) and compares their
// statistics. Iteration follows the target's field order, so the
// result is deterministic.
func fieldSimilarity(target, source []model.FieldSignature) (overlap, sim float64) {
	if len(target) == 0 || len(source) == 0 {
		return 0, 0
	}
	type key struct{ name, typ string }
	byKey := make(map[key]model.FieldSignature, len(source))
	for _, f := range source {
		byKey[key{f.Name, f.Type}] = f
	}
	matched := 0
	total := 0.0
	for _, tf := range target {
		sf, ok := byKey[key{tf.Name, tf.Type}]
		if !ok {
			continue
		}
		matched++
		dNull := math.Abs(tf.NullRatio - sf.NullRatio)
		dDist := math.Abs(tf.DistinctRatio - sf.DistinctRatio)
		dTok := 0.0
		if m := math.Max(tf.AvgTokens, sf.AvgTokens); m > 0 {
			dTok = math.Abs(tf.AvgTokens-sf.AvgTokens) / m
		}
		total += 1 - (dNull+dDist+dTok)/3
	}
	wider := len(target)
	if len(source) > wider {
		wider = len(source)
	}
	overlap = float64(matched) / float64(wider)
	if matched == 0 {
		return overlap, 0
	}
	return overlap, overlap * (total / float64(matched))
}

// tokenJaccard estimates the Jaccard similarity of two domains' token
// vocabularies from their signatures' sorted KMV hash lists: over the
// k smallest distinct hashes of the union (k capped by the smaller
// sketch), the fraction present in both lists — the classical KMV set
// estimator. Exact when both domains are small enough that the
// sketches kept every hash.
func tokenJaccard(a, b *model.Signature) float64 {
	ha, hb := a.TokenHashes, b.TokenHashes
	if len(ha) == 0 || len(hb) == 0 {
		return 0
	}
	k := a.SketchK
	if b.SketchK < k {
		k = b.SketchK
	}
	// Merge the two ascending lists, walking the union smallest-first.
	i, j, union, both := 0, 0, 0, 0
	for (i < len(ha) || j < len(hb)) && union < k {
		switch {
		case j >= len(hb) || (i < len(ha) && ha[i] < hb[j]):
			i++
		case i >= len(ha) || hb[j] < ha[i]:
			j++
		default: // equal: in both
			both++
			i++
			j++
		}
		union++
	}
	if union == 0 {
		return 0
	}
	return float64(both) / float64(union)
}

// centroidSimilarity compares two weighted centroid sets: the
// symmetric weighted mean distance from each centroid to its nearest
// counterpart, normalised by sqrt(m) (the feature-space diameter
// scale SEL uses) and pushed through the e^{-5x} decay. Returns
// ok=false when either set is empty or dimensionalities differ — the
// caller re-weights instead of guessing.
func centroidSimilarity(a, b []model.Centroid) (sim float64, ok bool) {
	if len(a) == 0 || len(b) == 0 {
		return 0, false
	}
	m := len(a[0].Vector)
	if m == 0 || len(b[0].Vector) != m {
		return 0, false
	}
	d := (directedCentroidDist(a, b) + directedCentroidDist(b, a)) / 2
	d /= math.Sqrt(float64(m))
	return math.Exp(-decayRate * d), true
}

// directedCentroidDist is the weighted mean nearest-counterpart
// Euclidean distance from set a into set b. Weights are renormalised
// over a (a truncated top-N keeps relative mass).
func directedCentroidDist(a, b []model.Centroid) float64 {
	totalW, acc := 0.0, 0.0
	for _, ca := range a {
		best := math.Inf(1)
		for _, cb := range b {
			d2 := 0.0
			for i := range ca.Vector {
				diff := ca.Vector[i] - cb.Vector[i]
				d2 += diff * diff
			}
			if d2 < best {
				best = d2
			}
		}
		acc += ca.Weight * math.Sqrt(best)
		totalW += ca.Weight
	}
	if totalW == 0 {
		return 0
	}
	return acc / totalW
}
