package model_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"transer/internal/model"
)

// corpusArtifact reads one checked-in FuzzArtifactDecode corpus entry
// ("go test fuzz v1" followed by a quoted []byte literal) and returns
// the artifact bytes it holds.
func corpusArtifact(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzArtifactDecode", name))
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := strings.CutPrefix(string(raw), "go test fuzz v1\n[]byte(")
	if !ok {
		t.Fatalf("%s: not a []byte corpus entry", name)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimSpace(lit), ")"))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return []byte(s)
}

// TestLegacyArtifactsDecode pins artifacts exported when classifier
// params still carried their "config" objects (an RF artifact repeats
// one for the forest and for each tree). They must keep decoding to
// the same fingerprint, assemble a matcher that ignores the config,
// and score exactly as the exporting process did.
func TestLegacyArtifactsDecode(t *testing.T) {
	probe := [][]float64{{0.3, 0.7, 0.9}, {1, 1, 1}}
	for _, c := range []struct {
		file, fingerprint string
		scores            []float64
	}{
		{"seed-0", "af4417b708e1c0ad57b1a9998efc31973fbfe01d390d33a08eb1cf3955725bcf", []float64{0.8711751159128903}},
		{"legacy-svm", "f208d912786cca304d8d2c256aa5fbd1dfbbb65f185d39379789173735b1d371", []float64{0.012964797819103539, 0.9157613962356773}},
		{"legacy-rf", "395e769a9a3d89f24089654b8f9a09fb33f2fe72646f093ef947c7453a841418", []float64{0.26666666666666666, 1}},
		{"legacy-dtree", "45fceabf08de4efa6d67b611f4a591e500f577fa219a24900d2e090d3ba99c46", []float64{0, 1}},
	} {
		t.Run(c.file, func(t *testing.T) {
			b := corpusArtifact(t, c.file)
			if !strings.Contains(string(b), `"config"`) {
				t.Fatalf("%s carries no legacy config object", c.file)
			}
			a, err := model.Decode(b)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			fp, err := a.Fingerprint()
			if err != nil {
				t.Fatal(err)
			}
			if fp != c.fingerprint {
				t.Errorf("fingerprint %s, want %s", fp, c.fingerprint)
			}
			m, err := model.NewMatcher(a)
			if err != nil {
				t.Fatalf("NewMatcher: %v", err)
			}
			got := m.Score(probe[:len(c.scores)], 1)
			for i, want := range c.scores {
				if got[i] != want {
					t.Errorf("score %v = %v, want %v", probe[i], got[i], want)
				}
			}
			// Re-exported params hold learned state only.
			params, err := m.Classifier.Params()
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(string(params), `"config"`) {
				t.Errorf("re-exported %s params still carry a config object", a.Classifier.Type)
			}
		})
	}
}

// TestNewMatcherRejectsWidthMismatch: a classifier whose input width
// differs from the scheme's feature count passes Decode (its params
// are well-formed JSON) but would index past every three-feature
// vector, or ignore part of it, at the first Score. NewMatcher must
// reject it, for every type that has a width.
func TestNewMatcherRejectsWidthMismatch(t *testing.T) {
	leaf := `{"leaf":true,"proba":1}`
	split := func(feature int) string {
		return `{"feature":` + strconv.Itoa(feature) + `,"threshold":0.5,"left":{"leaf":true},"right":` + leaf + `}`
	}
	tree := func(dim, feature int) string {
		return `{"dim":` + strconv.Itoa(dim) + `,"root":` + split(feature) + `}`
	}
	for _, c := range []struct {
		name, typ, params string
	}{
		{"logreg", "logreg", `{"w":[1.5],"bias":-1}`},
		{"svm", "svm", `{"w":[1.5],"bias":-1,"platt_a":1,"platt_b":0}`},
		{"dtree narrow", "dtree", tree(1, 0)},
		{"dtree wide", "dtree", tree(5, 4)},
		{"rf", "rf", `{"trees":[` + tree(2, 1) + `,` + tree(2, 0) + `]}`},
		{"rf mixed trees", "rf", `{"trees":[` + tree(3, 1) + `,` + tree(4, 3) + `]}`},
	} {
		t.Run(c.name, func(t *testing.T) {
			var doc map[string]any
			if err := json.Unmarshal(corpusArtifact(t, "seed-0"), &doc); err != nil {
				t.Fatal(err)
			}
			doc["classifier"] = map[string]any{"type": c.typ, "params": json.RawMessage(c.params)}
			b, err := json.Marshal(doc)
			if err != nil {
				t.Fatal(err)
			}
			a, err := model.Decode(b)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if _, err := model.NewMatcher(a); err == nil {
				t.Fatalf("NewMatcher accepted a %s whose width differs from the scheme's %d features",
					c.typ, len(a.Scheme.FeatureNames))
			}
		})
	}
}
