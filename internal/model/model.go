// Package model implements versioned, stdlib-only serialisation of
// trained match classifiers: the transer.model/v1 JSON artifact that
// cmd/transer exports (-model-out) and cmd/serve loads.
//
// An artifact is self-contained: it carries the classifier type with
// its learned parameters (the ml.ParamClassifier surface), the data
// schema and comparison-scheme parameters needed to turn a raw record
// pair back into the feature vector the classifier was trained on, the
// TransER training configuration, and provenance fingerprints of the
// training data (internal/pipeline's content hashes). The round-trip
// guarantee is exactness: a loaded model predicts byte-identically to
// the in-memory classifier it was exported from, on every input —
// property-tested via internal/testkit.
package model

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"transer/internal/compare"
	"transer/internal/core"
	"transer/internal/dataset"
	"transer/internal/ml"
	"transer/internal/ml/forest"
	"transer/internal/ml/logreg"
	"transer/internal/ml/nn"
	"transer/internal/ml/svm"
	"transer/internal/ml/tree"
	"transer/internal/pipeline"
)

// SchemaVersion identifies the model artifact JSON schema. Load
// rejects artifacts whose schema field differs — parameters written by
// a future incompatible format must never be silently misread.
const SchemaVersion = "transer.model/v1"

// Threshold is the match decision threshold every artifact records.
// All experiments in this repository (and the paper) decide at 0.5.
const Threshold = 0.5

// AttributeSpec is one schema column in serialised form.
type AttributeSpec struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// ClassifierSpec is the serialised classifier: its stable type
// identifier and the JSON parameter document its own Params produced.
type ClassifierSpec struct {
	Type   string          `json:"type"`
	Params json.RawMessage `json:"params"`
}

// SchemeSpec pins the comparison scheme the classifier's feature space
// came from. The scheme is rebuilt from the data schema on load
// (compare.DefaultScheme is a pure function of the schema); the
// signature and feature names double-check that the rebuild matches
// what the model was trained on.
type SchemeSpec struct {
	FeatureNames []string `json:"feature_names"`
	Missing      int      `json:"missing"`
	Quantize     float64  `json:"quantize"`
	Signature    string   `json:"signature"`
}

// TrainingSpec records the TransER configuration the classifier was
// trained under (provenance; not needed to predict).
type TrainingSpec struct {
	K    int     `json:"k"`
	TC   float64 `json:"tc"`
	TL   float64 `json:"tl"`
	TP   float64 `json:"tp"`
	B    float64 `json:"b"`
	Seed int64   `json:"seed"`

	DisableSEL    bool    `json:"disable_sel,omitempty"`
	DisableGENTCL bool    `json:"disable_gen_tcl,omitempty"`
	DisableSimC   bool    `json:"disable_sim_c,omitempty"`
	DisableSimL   bool    `json:"disable_sim_l,omitempty"`
	EnableSimV    bool    `json:"enable_sim_v,omitempty"`
	TV            float64 `json:"tv,omitempty"`

	// SELMode is decode-only: older exports recorded which of several
	// SEL engines selected the training instances. There is one engine
	// now and nothing writes the field, but an artifact that carries it
	// must keep it, because Fingerprint re-encodes the whole struct and
	// a stored model's identity must not change on load.
	SELMode string `json:"sel_mode,omitempty"`
}

// TrainingFromConfig converts a core.Config into its serialised form.
func TrainingFromConfig(c core.Config) TrainingSpec {
	return TrainingSpec{
		K: c.K, TC: c.TC, TL: c.TL, TP: c.TP, B: c.B, Seed: c.Seed,
		DisableSEL: c.DisableSEL, DisableGENTCL: c.DisableGENTCL,
		DisableSimC: c.DisableSimC, DisableSimL: c.DisableSimL,
		EnableSimV: c.EnableSimV, TV: c.TV,
	}
}

// Provenance fingerprints the run that produced the artifact: content
// hashes of the training databases (pipeline.DataFingerprint) and the
// phase statistics of the TransER run.
type Provenance struct {
	SourceName string `json:"source_name,omitempty"`
	TargetName string `json:"target_name,omitempty"`
	// Content fingerprints (hex SHA-256) of the four databases.
	SourceA string `json:"source_a,omitempty"`
	SourceB string `json:"source_b,omitempty"`
	TargetA string `json:"target_a,omitempty"`
	TargetB string `json:"target_b,omitempty"`
	// Pair counts and TransER phase statistics of the training run.
	SourcePairs    int  `json:"source_pairs,omitempty"`
	TargetPairs    int  `json:"target_pairs,omitempty"`
	Selected       int  `json:"selected,omitempty"`
	HighConfidence int  `json:"high_confidence,omitempty"`
	BalancedTrain  int  `json:"balanced_train,omitempty"`
	TCLFallback    bool `json:"tcl_fallback,omitempty"`
	// Signature is the domain signature of the target domain the model
	// was trained to serve (internal/repo computes it at cmd/transer
	// -model-out time). The model repository searches stored models by
	// signature similarity against a new unlabelled target. Omitted
	// when absent, keeping artifacts from older exports byte-stable.
	Signature *Signature `json:"signature,omitempty"`
}

// Artifact is one persisted model: everything needed to score a raw
// record pair exactly as the training process would have.
type Artifact struct {
	Schema    string    `json:"schema"`
	Name      string    `json:"name"`
	CreatedAt time.Time `json:"created_at"`
	Threshold float64   `json:"threshold"`

	Classifier ClassifierSpec  `json:"classifier"`
	DataSchema []AttributeSpec `json:"data_schema"`
	Scheme     SchemeSpec      `json:"scheme"`
	Training   TrainingSpec    `json:"training"`
	Provenance Provenance      `json:"provenance"`
}

// classifierFactories maps stable classifier type identifiers to fresh
// untrained instances ready for SetParams. Registration is static: the
// set of serialisable classifiers is part of the v1 schema.
var classifierFactories = map[string]func() ml.ParamClassifier{
	"constant": func() ml.ParamClassifier { return &ml.Constant{} },
	"logreg":   func() ml.ParamClassifier { return logreg.New(logreg.Config{}) },
	"svm":      func() ml.ParamClassifier { return svm.New(svm.Config{}) },
	"dtree":    func() ml.ParamClassifier { return tree.New(tree.Config{}) },
	"rf":       func() ml.ParamClassifier { return forest.New(forest.Config{}) },
	"mlp":      func() ml.ParamClassifier { return nn.NewMLP(nn.MLPConfig{}) },
}

// ClassifierTypes returns the registered classifier type identifiers
// in sorted order (for diagnostics).
func ClassifierTypes() []string {
	out := make([]string, 0, len(classifierFactories))
	for k := range classifierFactories {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// New assembles an artifact from a trained classifier and the schema /
// scheme of the domain it was trained on. The scheme must be the
// schema's default scheme (possibly with a different Missing or
// Quantize): custom comparator functions are code, not data, and
// cannot be serialised — New rejects schemes whose signature does not
// match what Load will rebuild.
func New(name string, clf ml.ParamClassifier, schema dataset.Schema, scheme compare.Scheme) (*Artifact, error) {
	if name == "" {
		return nil, fmt.Errorf("model: empty model name")
	}
	if clf == nil {
		return nil, fmt.Errorf("model: nil classifier")
	}
	if _, ok := classifierFactories[clf.ClassifierType()]; !ok {
		return nil, fmt.Errorf("model: unregistered classifier type %q (have %v)", clf.ClassifierType(), ClassifierTypes())
	}
	rebuilt := compare.DefaultScheme(schema)
	rebuilt.Missing = scheme.Missing
	rebuilt.Quantize = scheme.Quantize
	if got, want := pipeline.SchemeSignature(rebuilt), pipeline.SchemeSignature(scheme); got != want {
		return nil, fmt.Errorf("model: scheme is not the schema's default scheme (signature %q, rebuilt %q); custom comparators cannot be serialised", want, got)
	}
	params, err := clf.Params()
	if err != nil {
		return nil, fmt.Errorf("model: exporting %s params: %w", clf.ClassifierType(), err)
	}
	attrs := make([]AttributeSpec, len(schema.Attributes))
	for i, a := range schema.Attributes {
		attrs[i] = AttributeSpec{Name: a.Name, Type: a.Type.String()}
	}
	return &Artifact{
		Schema:     SchemaVersion,
		Name:       name,
		CreatedAt:  time.Now().UTC(),
		Threshold:  Threshold,
		Classifier: ClassifierSpec{Type: clf.ClassifierType(), Params: params},
		DataSchema: attrs,
		Scheme: SchemeSpec{
			FeatureNames: scheme.FeatureNames(),
			Missing:      int(scheme.Missing),
			Quantize:     scheme.Quantize,
			Signature:    pipeline.SchemeSignature(scheme),
		},
	}, nil
}

// Validate checks the structural invariants of an artifact.
func (a *Artifact) Validate() error {
	if a.Schema != SchemaVersion {
		return fmt.Errorf("model: artifact schema %q, want %q", a.Schema, SchemaVersion)
	}
	if a.Name == "" {
		return fmt.Errorf("model: artifact has no name")
	}
	if a.Threshold <= 0 || a.Threshold >= 1 {
		return fmt.Errorf("model: threshold %v outside (0,1)", a.Threshold)
	}
	if _, ok := classifierFactories[a.Classifier.Type]; !ok {
		return fmt.Errorf("model: unknown classifier type %q (have %v)", a.Classifier.Type, ClassifierTypes())
	}
	if len(a.Classifier.Params) == 0 {
		return fmt.Errorf("model: classifier %q carries no params", a.Classifier.Type)
	}
	if len(a.DataSchema) == 0 {
		return fmt.Errorf("model: artifact has no data schema")
	}
	if len(a.Scheme.FeatureNames) == 0 {
		return fmt.Errorf("model: artifact has no feature names")
	}
	// Rebuilding the scheme exercises the full consistency chain:
	// parseable attribute types, matching signature, matching feature
	// names. A corrupted artifact fails here at decode time rather
	// than at first scoring.
	if _, err := a.BuildScheme(); err != nil {
		return err
	}
	if sig := a.Provenance.Signature; sig != nil {
		if err := sig.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// RecordSchema rebuilds the dataset schema records must conform to.
func (a *Artifact) RecordSchema() (dataset.Schema, error) {
	attrs := make([]dataset.Attribute, len(a.DataSchema))
	for i, s := range a.DataSchema {
		t, err := dataset.ParseAttrType(s.Type)
		if err != nil {
			return dataset.Schema{}, fmt.Errorf("model: attribute %q: %w", s.Name, err)
		}
		attrs[i] = dataset.Attribute{Name: s.Name, Type: t}
	}
	return dataset.Schema{Attributes: attrs}, nil
}

// BuildScheme rebuilds the comparison scheme that produced the model's
// feature space and verifies it against the persisted signature.
func (a *Artifact) BuildScheme() (compare.Scheme, error) {
	schema, err := a.RecordSchema()
	if err != nil {
		return compare.Scheme{}, err
	}
	s := compare.DefaultScheme(schema)
	s.Missing = compare.MissingPolicy(a.Scheme.Missing)
	s.Quantize = a.Scheme.Quantize
	if got := pipeline.SchemeSignature(s); got != a.Scheme.Signature {
		return compare.Scheme{}, fmt.Errorf("model: rebuilt scheme signature %q does not match artifact %q", got, a.Scheme.Signature)
	}
	names := s.FeatureNames()
	if len(names) != len(a.Scheme.FeatureNames) {
		return compare.Scheme{}, fmt.Errorf("model: rebuilt scheme has %d features, artifact %d", len(names), len(a.Scheme.FeatureNames))
	}
	for i, n := range names {
		if n != a.Scheme.FeatureNames[i] {
			return compare.Scheme{}, fmt.Errorf("model: feature %d is %q, artifact says %q", i, n, a.Scheme.FeatureNames[i])
		}
	}
	return s, nil
}

// NewClassifier instantiates the artifact's classifier and restores
// its learned parameters.
func (a *Artifact) NewClassifier() (ml.ParamClassifier, error) {
	factory, ok := classifierFactories[a.Classifier.Type]
	if !ok {
		return nil, fmt.Errorf("model: unknown classifier type %q", a.Classifier.Type)
	}
	c := factory()
	if err := c.SetParams(a.Classifier.Params); err != nil {
		return nil, fmt.Errorf("model: restoring %s: %w", a.Classifier.Type, err)
	}
	return c, nil
}

// Encode serialises the artifact as indented JSON.
func (a *Artifact) Encode() ([]byte, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	b, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Fingerprint returns the hex SHA-256 digest of the canonically
// encoded artifact — the identity that provenance responses and
// decision logs cite, so a logged match decision can be tied to the
// exact parameters that produced it. The creation timestamp is
// metadata, not model content, and is excluded: two artifacts with
// identical parameters, schema, scheme, training configuration and
// provenance fingerprint equal regardless of when they were stamped.
func (a *Artifact) Fingerprint() (string, error) {
	c := *a
	c.CreatedAt = time.Time{}
	b, err := c.Encode()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Decode parses and validates a serialised artifact.
func Decode(b []byte) (*Artifact, error) {
	var a Artifact
	if err := json.Unmarshal(b, &a); err != nil {
		return nil, fmt.Errorf("model: artifact is not valid JSON: %w", err)
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return &a, nil
}

// WriteFile persists the artifact atomically: the bytes land in a
// temporary file in the destination directory, are fsynced, and only
// then renamed over path. A crash mid-export can therefore never leave
// a truncated artifact for a server or the model repository to ingest
// — readers see either the previous complete file or the new one.
func (a *Artifact) WriteFile(path string) error {
	b, err := a.Encode()
	if err != nil {
		return err
	}
	return AtomicWriteFile(path, b)
}

// AtomicWriteFile writes data to path via a same-directory temp file,
// fsync and rename, so concurrent readers and crash recovery never
// observe a partial file. The repository's catalog index uses the same
// helper for its swap-on-success index updates.
func AtomicWriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := f.Write(data); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Chmod(tmp, 0o644); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// Load reads and validates an artifact from disk.
func Load(path string) (*Artifact, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	a, err := Decode(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return a, nil
}
