package model_test

import (
	"encoding/json"
	"strings"
	"testing"

	"transer/internal/core"
	"transer/internal/model"
)

// legacyApproxArtifact is an artifact as older exports wrote it when
// training ran under the since-deleted approximate SEL engine: its
// training spec records "sel_mode":"approx".
const legacyApproxArtifact = `{
  "schema": "transer.model/v1",
  "name": "legacy-approx",
  "created_at": "2026-01-02T03:04:05Z",
  "threshold": 0.5,
  "classifier": {"type": "constant", "params": {"p": 0.25}},
  "data_schema": [{"name": "title", "type": "name"}, {"name": "year", "type": "year"}],
  "scheme": {
    "feature_names": ["title_jw", "year_yr"],
    "missing": 0,
    "quantize": 0.05,
    "signature": "comparators=(0:title_jw)(1:year_yr)|missing=0|quantize=0.05"
  },
  "training": {"k": 7, "tc": 0.9, "tl": 0.9, "tp": 0.9, "b": 3, "seed": 0, "sel_mode": "approx"},
  "provenance": {}
}`

// legacyApproxFingerprint is the fingerprint the export that wrote
// legacyApproxArtifact computed for it.
const legacyApproxFingerprint = "907eaedc574b36c2ace1083bb57669d44c27f6b345bd5b2db673c81011f2b982"

// TestTrainingSpecCarriesSELMode: TrainingSpec.SELMode is decode-only.
// An artifact that recorded a SEL engine keeps the field through
// decoding, so its fingerprint — the identity the model repository
// verifies stored models against — does not move; new exports never
// write it.
func TestTrainingSpecCarriesSELMode(t *testing.T) {
	a, err := model.Decode([]byte(legacyApproxArtifact))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if a.Training.SELMode != "approx" {
		t.Errorf("decoded SELMode = %q, want %q", a.Training.SELMode, "approx")
	}
	fp, err := a.Fingerprint()
	if err != nil {
		t.Fatalf("Fingerprint: %v", err)
	}
	if fp != legacyApproxFingerprint {
		t.Errorf("fingerprint %s, want %s as exported", fp, legacyApproxFingerprint)
	}

	plain, err := json.Marshal(model.TrainingFromConfig(core.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(plain), "sel_mode") {
		t.Errorf("new training spec writes sel_mode: %s", plain)
	}
}
