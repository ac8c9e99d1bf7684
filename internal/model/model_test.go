package model_test

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"transer/internal/compare"
	"transer/internal/dataset"
	"transer/internal/ml"
	"transer/internal/ml/forest"
	"transer/internal/ml/logreg"
	"transer/internal/ml/nn"
	"transer/internal/ml/svm"
	"transer/internal/ml/tree"
	"transer/internal/model"
	"transer/internal/pipeline"
	"transer/internal/testkit"
)

// trainables enumerates every serialisable classifier with a concrete
// training configuration.
var trainables = []struct {
	typ   string
	fresh func() ml.ParamClassifier
}{
	{"constant", func() ml.ParamClassifier { return &ml.Constant{} }},
	{"logreg", func() ml.ParamClassifier { return logreg.New(logreg.Config{}) }},
	{"svm", func() ml.ParamClassifier { return svm.New(svm.Config{}) }},
	{"dtree", func() ml.ParamClassifier { return tree.New(tree.Config{Seed: 11}) }},
	{"rf", func() ml.ParamClassifier { return forest.New(forest.Config{NumTrees: 5, Seed: 12}) }},
	{"mlp", func() ml.ParamClassifier { return nn.NewMLP(nn.MLPConfig{Seed: 13, Epochs: 15}) }},
}

// trainingPairs derives a labelled comparison-vector set from a
// generated database pair: every cross pair, labelled by shared
// entity. The corruption in DatabasePair keeps both classes present
// for any non-trivial size.
func trainingPairs(t *testkit.T, scheme compare.Scheme, a, b *dataset.Database) (x [][]float64, y []int) {
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
	ones := 0
	for _, v := range y {
		ones += v
	}
	if ones == 0 || ones == len(y) {
		t.FailNow() // degenerate draw; shrinking will not help but reseeding will
	}
	return x, y
}

// TestArtifactRoundTripAllClassifiers is the tentpole guarantee: for
// every classifier type, a model exported, encoded, decoded and
// reassembled scores byte-identically to the in-memory classifier.
func TestArtifactRoundTripAllClassifiers(t *testing.T) {
	for _, tc := range trainables {
		tc := tc
		t.Run(tc.typ, func(t *testing.T) {
			t.Parallel()
			testkit.Run(t, "model-roundtrip-"+tc.typ, 6, func(pt *testkit.T) {
				a, b := testkit.DatabasePair(pt.Rng, 10+pt.Size)
				scheme := compare.DefaultScheme(a.Schema)
				x, y := trainingPairs(pt, scheme, a, b)
				clf := tc.fresh()
				if err := clf.Fit(x, y); err != nil {
					pt.Fatalf("Fit: %v", err)
				}

				art, err := model.New("prop", clf, a.Schema, scheme)
				if err != nil {
					pt.Fatalf("New: %v", err)
				}
				enc, err := art.Encode()
				if err != nil {
					pt.Fatalf("Encode: %v", err)
				}
				dec, err := model.Decode(enc)
				if err != nil {
					pt.Fatalf("Decode: %v", err)
				}
				m, err := model.NewMatcher(dec)
				if err != nil {
					pt.Fatalf("NewMatcher: %v", err)
				}

				// Score a disjoint evaluation set through both paths.
				ea, eb := testkit.DatabasePair(pt.Rng, 8+pt.Size/2)
				var ex [][]float64
				for _, ra := range ea.Records {
					for _, rb := range eb.Records {
						ex = append(ex, m.Vector(ra, rb))
					}
				}
				want := clf.PredictProba(ex)
				got := m.Score(ex, 1)
				if !testkit.EqualFloats(want, got) {
					pt.Fatalf("loaded %s model diverges from the in-memory classifier", tc.typ)
				}

				// Feature vectors must also agree with the training scheme.
				for i, ra := range ea.Records {
					if i > 3 {
						break
					}
					if !testkit.RowsEqual(scheme.Pair(ra, eb.Records[0]), m.Vector(ra, eb.Records[0])) {
						pt.Fatalf("rebuilt scheme computes different vectors")
					}
				}

				// Re-exported parameters are byte-identical (stable format).
				p2, err := m.Classifier.Params()
				if err != nil {
					pt.Fatalf("re-export: %v", err)
				}
				p1, _ := clf.Params()
				if !bytes.Equal(p1, p2) {
					pt.Fatalf("re-exported params differ:\n%s\n%s", p1, p2)
				}
			})
		})
	}
}

func TestScoreDeterministicAcrossWorkers(t *testing.T) {
	testkit.Run(t, "model-score-workers", 4, func(pt *testkit.T) {
		a, b := testkit.DatabasePair(pt.Rng, 12+pt.Size)
		scheme := compare.DefaultScheme(a.Schema)
		x, y := trainingPairs(pt, scheme, a, b)
		clf := logreg.New(logreg.Config{})
		if err := clf.Fit(x, y); err != nil {
			pt.Fatalf("Fit: %v", err)
		}
		art, err := model.New("workers", clf, a.Schema, scheme)
		if err != nil {
			pt.Fatalf("New: %v", err)
		}
		m, err := model.NewMatcher(art)
		if err != nil {
			pt.Fatalf("NewMatcher: %v", err)
		}
		want := m.Score(x, 1)
		for _, w := range []int{0, 2, 3, 7} {
			if !testkit.EqualFloats(want, m.Score(x, w)) {
				pt.Fatalf("Score differs at workers=%d", w)
			}
		}
	})
}

func fixtureArtifact(t *testing.T) *model.Artifact {
	t.Helper()
	sch := dataset.Schema{Attributes: []dataset.Attribute{
		{Name: "title", Type: dataset.AttrName},
		{Name: "year", Type: dataset.AttrYear},
	}}
	clf := &ml.Constant{P: 0.25}
	art, err := model.New("fixture", clf, sch, compare.DefaultScheme(sch))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return art
}

func TestWriteFileLoadMatcher(t *testing.T) {
	art := fixtureArtifact(t)
	path := filepath.Join(t.TempDir(), "m.json")
	if err := art.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	m, err := model.LoadMatcher(path)
	if err != nil {
		t.Fatalf("LoadMatcher: %v", err)
	}
	if m.Artifact.Name != "fixture" || m.Artifact.Classifier.Type != "constant" {
		t.Errorf("loaded artifact %q/%q", m.Artifact.Name, m.Artifact.Classifier.Type)
	}
	if got := m.Score([][]float64{{1, 1}}, 1); got[0] != 0.25 {
		t.Errorf("constant model scored %v, want 0.25", got[0])
	}
	if m.Decide(0.25) || !m.Decide(0.5) {
		t.Errorf("Decide does not apply the 0.5 threshold")
	}
}

func TestNewRejectsNonDefaultScheme(t *testing.T) {
	sch := dataset.Schema{Attributes: []dataset.Attribute{{Name: "title", Type: dataset.AttrName}}}
	scheme := compare.DefaultScheme(sch)
	scheme.Comparators[0].Name = "title_custom"
	if _, err := model.New("bad", &ml.Constant{}, sch, scheme); err == nil {
		t.Fatalf("New accepted a scheme whose signature the loader cannot rebuild")
	}
	// Changed Missing/Quantize are fine — they serialise as data.
	ok := compare.DefaultScheme(sch)
	ok.Missing = compare.MissingHalf
	ok.Quantize = 0.1
	art, err := model.New("ok", &ml.Constant{}, sch, ok)
	if err != nil {
		t.Fatalf("New rejected a tuned default scheme: %v", err)
	}
	m, err := model.NewMatcher(art)
	if err != nil {
		t.Fatalf("NewMatcher: %v", err)
	}
	if m.Scheme.Missing != compare.MissingHalf || m.Scheme.Quantize != 0.1 {
		t.Errorf("matcher scheme lost Missing/Quantize: %+v", m.Scheme)
	}
}

func TestDecodeRejections(t *testing.T) {
	art := fixtureArtifact(t)
	enc, err := art.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	corrupt := func(old, new string) []byte {
		s := strings.Replace(string(enc), old, new, 1)
		if s == string(enc) {
			t.Fatalf("corruption %q not applied", old)
		}
		return []byte(s)
	}
	cases := map[string][]byte{
		"not json":        []byte("{nope"),
		"schema version":  corrupt(model.SchemaVersion, "transer.model/v99"),
		"classifier type": corrupt(`"type": "constant"`, `"type": "nonesuch"`),
		"retired knn":     corrupt(`"type": "constant"`, `"type": "knn"`),
		"attribute type":  corrupt(`"type": "year"`, `"type": "epoch"`),
		"signature":       corrupt("quantize=0.05", "quantize=0.25"),
		"threshold":       corrupt(`"threshold": 0.5`, `"threshold": 1.5`),
		"feature names":   corrupt(`"title_jw"`, `"title_zz"`),
	}
	for name, b := range cases {
		if _, err := model.Decode(b); err == nil {
			t.Errorf("Decode accepted artifact with corrupted %s", name)
		}
	}
	// The k-NN classifier is no longer serialisable; an old artifact
	// naming it fails as any unregistered type does.
	if _, err := model.Decode(cases["retired knn"]); err == nil || !strings.Contains(err.Error(), `unknown classifier type "knn"`) {
		t.Errorf("Decode of a knn artifact: %v, want the unknown classifier type error", err)
	}
}

func TestRecordFromValues(t *testing.T) {
	art := fixtureArtifact(t)
	m, err := model.NewMatcher(art)
	if err != nil {
		t.Fatalf("NewMatcher: %v", err)
	}
	r, err := m.RecordFromValues(map[string]string{"year": "1999"})
	if err != nil {
		t.Fatalf("RecordFromValues: %v", err)
	}
	if len(r.Values) != 2 || r.Values[0] != "" || r.Values[1] != "1999" {
		t.Errorf("record values %v", r.Values)
	}
	if _, err := m.RecordFromValues(map[string]string{"titel": "x"}); err == nil {
		t.Errorf("unknown attribute accepted")
	}
	if got := m.AttributeNames(); len(got) != 2 || got[0] != "title" {
		t.Errorf("AttributeNames = %v", got)
	}
}

func TestSignatureMatchesPipeline(t *testing.T) {
	art := fixtureArtifact(t)
	sch, err := art.RecordSchema()
	if err != nil {
		t.Fatalf("RecordSchema: %v", err)
	}
	if got, want := art.Scheme.Signature, pipeline.SchemeSignature(compare.DefaultScheme(sch)); got != want {
		t.Errorf("artifact signature %q, pipeline computes %q", got, want)
	}
}

func TestClassifierTypesSorted(t *testing.T) {
	types := model.ClassifierTypes()
	if len(types) != len(trainables) {
		t.Fatalf("registry has %d types, tests cover %d", len(types), len(trainables))
	}
	for i := 1; i < len(types); i++ {
		if types[i-1] >= types[i] {
			t.Errorf("ClassifierTypes not sorted: %v", types)
		}
	}
}

// TestArtifactFingerprint pins the fingerprint contract: a content
// identity — stable across calls and creation re-stamps, sensitive to
// any parameter change, and cached verbatim on the matcher.
func TestArtifactFingerprint(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a, _ := testkit.DatabasePair(rng, 8)
	scheme := compare.DefaultScheme(a.Schema)
	width := len(scheme.Pair(a.Records[0], a.Records[0]))
	clf := &ml.Constant{}
	if err := clf.Fit([][]float64{make([]float64, width)}, []int{1}); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	art, err := model.New("fp-test", clf, a.Schema, scheme)
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	fp1, err := art.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if len(fp1) != 64 || strings.Trim(fp1, "0123456789abcdef") != "" {
		t.Fatalf("fingerprint %q is not 64 hex chars", fp1)
	}
	fp2, err := art.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp2 != fp1 {
		t.Fatalf("fingerprint unstable: %s then %s", fp1, fp2)
	}

	// The creation timestamp is metadata, not content: a re-stamped
	// artifact with identical parameters fingerprints equal.
	other, err := model.New("fp-test", clf, a.Schema, scheme)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	other.CreatedAt = art.CreatedAt.Add(time.Hour)
	ofp, err := other.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if ofp != fp1 {
		t.Fatalf("re-stamped artifact fingerprints %s, want %s", ofp, fp1)
	}

	// Any content change moves the digest.
	other.Threshold = 0.9
	changed, err := other.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if changed == fp1 {
		t.Fatal("threshold change did not move the fingerprint")
	}

	// The matcher caches the same identity at construction.
	m, err := model.NewMatcher(art)
	if err != nil {
		t.Fatalf("NewMatcher: %v", err)
	}
	if m.Fingerprint() != fp1 {
		t.Fatalf("matcher fingerprint %s, artifact %s", m.Fingerprint(), fp1)
	}
}
