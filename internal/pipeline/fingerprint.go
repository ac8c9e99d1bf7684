package pipeline

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"transer/internal/blocking"
	"transer/internal/compare"
	"transer/internal/dataset"
)

// Fingerprint is the deterministic cache key of one stage artifact:
// the SHA-256 of a canonical description of the stage and every input
// that can change its output. Stage fingerprints chain — the block key
// hashes the generate fingerprint, the compare and label keys hash the
// block fingerprint — so any differing upstream input propagates to
// every downstream key.
//
// TransER's configuration is deliberately absent from every
// domain-stage key: the selector and the classifiers consume feature
// matrices downstream of these artifacts and cannot change them, so
// every TransER configuration shares one cached domain build.
type Fingerprint [sha256.Size]byte

// String renders the fingerprint as short hex for diagnostics.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:8]) }

func fingerprint(key string) Fingerprint { return sha256.Sum256([]byte(key)) }

// generateKey identifies a generated domain pair: dataset identity
// (key + generator seed) and scale.
func generateKey(d Dataset, scale float64) string {
	return fmt.Sprintf("generate|dataset=%s|seed=%d|scale=%g", d.Key, d.Seed, scale)
}

// blockKey identifies a candidate pair set: the generated data it was
// blocked from plus the normalised blocking configuration (so the zero
// config and an explicitly spelled-out default hit the same entry).
func blockKey(gen Fingerprint, cfg blocking.MinHashConfig) string {
	c := cfg.Normalized()
	return fmt.Sprintf("block|%x|hashes=%d|bands=%d|q=%d|attrs=%v|seed=%d|maxbucket=%d",
		gen[:], c.NumHashes, c.Bands, c.Q, c.Attrs, c.Seed, c.MaxBucketSize)
}

// SchemeSignature is the canonical description of a comparison scheme:
// the (attribute index, comparator name) list plus the missing-value
// policy and quantisation step. Scheme.Workers is deliberately
// excluded — the matrix is byte-identical for every worker count (the
// parallel package's determinism guarantee). It doubles as the
// compatibility check of model artifacts (internal/model): a model may
// only score vectors produced by a scheme with the same signature.
func SchemeSignature(s compare.Scheme) string {
	var sig strings.Builder
	for _, c := range s.Comparators {
		fmt.Fprintf(&sig, "(%d:%s)", c.Attr, c.Name)
	}
	return fmt.Sprintf("comparators=%s|missing=%d|quantize=%g",
		sig.String(), s.Missing, s.Quantize)
}

// compareKey identifies a feature matrix: the candidate pairs it was
// computed over plus the comparison scheme signature.
func compareKey(block Fingerprint, s compare.Scheme) string {
	return fmt.Sprintf("compare|%x|%s", block[:], SchemeSignature(s))
}

// DataFingerprint hashes a database's full content — schema attribute
// names and types, then every record's id, entity id and values — into
// the provenance fingerprint model artifacts carry. The display Name
// is excluded so renaming a CSV does not change the fingerprint.
func DataFingerprint(db *dataset.Database) Fingerprint {
	h := sha256.New()
	fmt.Fprintf(h, "data|attrs=")
	for _, a := range db.Schema.Attributes {
		fmt.Fprintf(h, "(%s:%s)", a.Name, a.Type)
	}
	for _, r := range db.Records {
		fmt.Fprintf(h, "|%s|%s|%q", r.ID, r.EntityID, r.Values)
	}
	var f Fingerprint
	h.Sum(f[:0])
	return f
}

// Hex renders the full fingerprint as hex (String keeps the short
// diagnostic form).
func (f Fingerprint) Hex() string { return hex.EncodeToString(f[:]) }

// labelKey identifies a pair label vector: labels are a pure function
// of the blocked pairs and the generated data's ground truth, both of
// which the block fingerprint already pins.
func labelKey(block Fingerprint) string {
	return fmt.Sprintf("label|%x", block[:])
}
