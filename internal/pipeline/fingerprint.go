package pipeline

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"transer/internal/compare"
	"transer/internal/dataset"
)

// Fingerprint is a SHA-256 content hash of a database (DataFingerprint):
// the provenance fingerprint model artifacts carry for their training
// data.
type Fingerprint [sha256.Size]byte

// Hex renders the full fingerprint as hex.
func (f Fingerprint) Hex() string { return hex.EncodeToString(f[:]) }

// SchemeSignature is the canonical description of a comparison scheme:
// the (attribute index, comparator name) list plus the missing-value
// policy and quantisation step. It is the compatibility check of model
// artifacts (internal/model): a model may only score vectors produced
// by a scheme with the same signature.
func SchemeSignature(s compare.Scheme) string {
	var sig strings.Builder
	for _, c := range s.Comparators {
		fmt.Fprintf(&sig, "(%d:%s)", c.Attr, c.Name)
	}
	return fmt.Sprintf("comparators=%s|missing=%d|quantize=%g",
		sig.String(), s.Missing, s.Quantize)
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
