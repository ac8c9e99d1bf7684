package model

import (
	"fmt"
	"sort"
)

// SignatureSchemaVersion identifies the domain-signature JSON document
// embedded in artifact provenance and exchanged by the model
// repository's search surfaces (cmd/repo sign, POST /v1/models/select).
const SignatureSchemaVersion = "transer.signature/v1"

// FieldSignature summarises one schema attribute of the domain a model
// was trained to serve: per-field statistics internal/repo collects,
// persisted so repository search can compare a stored model's domain
// against a new target without re-reading the training data.
type FieldSignature struct {
	Name string `json:"name"`
	Type string `json:"type"`
	// NullRatio is the fraction of empty values in [0, 1].
	NullRatio float64 `json:"null_ratio"`
	// DistinctRatio is distinct non-empty values over non-empty values.
	DistinctRatio float64 `json:"distinct_ratio"`
	// AvgTokens is the mean word-token count of non-empty values.
	AvgTokens float64 `json:"avg_tokens"`
}

// Centroid is one weighted point of the domain's quantized
// compare-vector distribution: a distinct feature vector of the
// domain's candidate pairs and the fraction of pairs carrying it.
// Comparison schemes quantize features to a coarse grid (0.05 by
// default), so a handful of high-multiplicity vectors covers most of a
// domain's pair mass — the same repetition the SEL fast path
// deduplicates (DESIGN.md §10), repurposed here as a compact sketch of
// where the domain's pairs live in feature space.
type Centroid struct {
	// Weight is the fraction of candidate pairs sharing this vector,
	// in (0, 1].
	Weight float64 `json:"weight"`
	// Vector is the quantized comparison feature vector.
	Vector []float64 `json:"vector"`
}

// Signature is the compact domain signature of the data a model
// serves: per-field statistics, a KMV token sketch of the domain's
// value vocabulary, and the dominant quantized compare-vector
// centroids. It is a pure function of the domain (record order never
// matters) and a few KB regardless of domain size, so a repository of
// hundreds of models searches in microseconds.
type Signature struct {
	Schema string `json:"schema"`
	// Records counts the records the signature was computed over
	// (both databases pooled); Pairs the candidate pairs behind the
	// centroids.
	Records int `json:"records"`
	Pairs   int `json:"pairs"`
	// Fields holds per-attribute statistics in schema order.
	Fields []FieldSignature `json:"fields"`
	// SketchK is the KMV sketch size; TokenHashes the sketch's kept
	// minimum hashes in ascending order. Two signatures' token-set
	// Jaccard is estimated directly from these lists (see
	// internal/repo).
	SketchK     int      `json:"sketch_k"`
	TokenHashes []uint64 `json:"token_hashes"`
	// Centroids are the highest-multiplicity quantized compare vectors,
	// by descending weight (ties broken by vector bytes ascending).
	// Empty when the signature was built without candidate vectors.
	Centroids []Centroid `json:"centroids,omitempty"`
}

// Validate checks the structural invariants of a signature.
func (s *Signature) Validate() error {
	if s.Schema != SignatureSchemaVersion {
		return fmt.Errorf("model: signature schema %q, want %q", s.Schema, SignatureSchemaVersion)
	}
	if s.Records < 0 || s.Pairs < 0 {
		return fmt.Errorf("model: signature has negative counts (records %d, pairs %d)", s.Records, s.Pairs)
	}
	if len(s.Fields) == 0 {
		return fmt.Errorf("model: signature has no fields")
	}
	for _, f := range s.Fields {
		if f.Name == "" {
			return fmt.Errorf("model: signature field with empty name")
		}
		if f.NullRatio < 0 || f.NullRatio > 1 || f.DistinctRatio < 0 || f.DistinctRatio > 1 {
			return fmt.Errorf("model: signature field %q ratios outside [0,1]", f.Name)
		}
	}
	if s.SketchK <= 0 {
		return fmt.Errorf("model: signature sketch_k %d, want > 0", s.SketchK)
	}
	if len(s.TokenHashes) > s.SketchK {
		return fmt.Errorf("model: signature carries %d token hashes, sketch_k is %d", len(s.TokenHashes), s.SketchK)
	}
	if !sort.SliceIsSorted(s.TokenHashes, func(i, j int) bool { return s.TokenHashes[i] < s.TokenHashes[j] }) {
		return fmt.Errorf("model: signature token hashes are not ascending")
	}
	dim := -1
	for i, c := range s.Centroids {
		if c.Weight <= 0 || c.Weight > 1 {
			return fmt.Errorf("model: signature centroid %d weight %v outside (0,1]", i, c.Weight)
		}
		if dim == -1 {
			dim = len(c.Vector)
		} else if len(c.Vector) != dim {
			return fmt.Errorf("model: signature centroid %d has %d dims, earlier centroids %d", i, len(c.Vector), dim)
		}
	}
	return nil
}
