package model_test

import (
	"math/rand"
	"testing"

	"transer/internal/compare"
	"transer/internal/ml/logreg"
	"transer/internal/model"
	"transer/internal/testkit"
)

// fuzzSeedArtifact builds one real encoded artifact for the fuzz seed
// corpus (the checked-in seeds under testdata/fuzz were generated from
// the same construction, plus hand-broken variants).
func fuzzSeedArtifact(f *testing.F) []byte {
	f.Helper()
	rng := rand.New(rand.NewSource(7))
	a, b := testkit.DatabasePair(rng, 12)
	scheme := compare.DefaultScheme(a.Schema)
	var x [][]float64
	var y []int
	for _, ra := range a.Records {
		for _, rb := range b.Records {
			x = append(x, scheme.Pair(ra, rb))
			if ra.EntityID == rb.EntityID {
				y = append(y, 1)
			} else {
				y = append(y, 0)
			}
		}
	}
	clf := logreg.New(logreg.Config{})
	if err := clf.Fit(x, y); err != nil {
		f.Fatalf("Fit: %v", err)
	}
	art, err := model.New("fuzz-seed", clf, a.Schema, scheme)
	if err != nil {
		f.Fatalf("model.New: %v", err)
	}
	enc, err := art.Encode()
	if err != nil {
		f.Fatalf("Encode: %v", err)
	}
	return enc
}

// FuzzArtifactDecode feeds arbitrary bytes to the artifact decoder.
// The contract under attack: Decode either rejects the input with an
// error or returns a fully usable artifact — one whose schema and
// scheme rebuild, whose encode → decode round trip is stable, whose
// fingerprint is deterministic, and whose matcher, when NewMatcher
// accepts it, scores without panicking. Truncated bodies, dropped
// fields, wrong schema versions, mangled classifier payloads and
// legacy artifacts of every classifier type are all in the seed
// corpus; none may panic.
func FuzzArtifactDecode(f *testing.F) {
	valid := fuzzSeedArtifact(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"schema":"transer.model/v1"}`))
	f.Add([]byte(`{"schema":"transer.model/v2","name":"x"}`))
	f.Add([]byte(`{"schema":"transer.model/v1","name":"x","classifier":{"type":"bogus","params":"bm90IGpzb24"}}`))
	f.Add([]byte(`{"schema":"transer.model/v1","name":"x","threshold":2}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := model.Decode(data)
		if err != nil {
			return // rejected inputs are fine; panics are not
		}
		// A decoded artifact must satisfy its own validator...
		if verr := a.Validate(); verr != nil {
			t.Fatalf("Decode accepted an artifact Validate rejects: %v", verr)
		}
		// ...rebuild its record schema and comparison scheme...
		if _, serr := a.RecordSchema(); serr != nil {
			t.Fatalf("decoded artifact has no usable schema: %v", serr)
		}
		if _, serr := a.BuildScheme(); serr != nil {
			t.Fatalf("decoded artifact has no usable scheme: %v", serr)
		}
		// ...and survive an encode → decode round trip with a stable
		// fingerprint (the repository's content address).
		fp1, ferr := a.Fingerprint()
		if ferr != nil {
			t.Fatalf("decoded artifact has no fingerprint: %v", ferr)
		}
		enc, eerr := a.Encode()
		if eerr != nil {
			t.Fatalf("re-encoding a decoded artifact: %v", eerr)
		}
		again, derr := model.Decode(enc)
		if derr != nil {
			t.Fatalf("re-decoding our own encoding: %v", derr)
		}
		fp2, ferr := again.Fingerprint()
		if ferr != nil {
			t.Fatalf("round-tripped artifact has no fingerprint: %v", ferr)
		}
		if fp1 != fp2 {
			t.Fatalf("fingerprint changed across encode/decode: %s -> %s", fp1, fp2)
		}
		// Restoring the classifier may still reject the params; an
		// assembled matcher must score a vector of the scheme's width.
		m, merr := model.NewMatcher(a)
		if merr != nil {
			return
		}
		if p := m.Score([][]float64{make([]float64, len(a.Scheme.FeatureNames))}, 1); len(p) != 1 {
			t.Fatalf("scoring one vector returned %d probabilities", len(p))
		}
	})
}
