package pipeline

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"transer/internal/compare"
	"transer/internal/datagen"
	"transer/internal/dataset"
)

// TestBuildPairMatchesStoreArtifacts: the store's build is generate
// followed by the same Build BuildPair runs, so every builtin domain it
// returns equals BuildPair's — pairs, features bit for bit, labels,
// name and scheme — at any worker count.
func TestBuildPairMatchesStoreArtifacts(t *testing.T) {
	const scale = 0.02
	st := NewStore()
	for _, b := range datagen.Builtins() {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", b.Key, workers), func(t *testing.T) {
				cached := st.Domain(Request{Dataset: b, Scale: scale, Workers: workers})
				direct := BuildPair(b.Generate(scale), workers)
				if cached.Name != direct.Name {
					t.Fatalf("name mismatch: %q vs %q", cached.Name, direct.Name)
				}
				if got, want := SchemeSignature(cached.Scheme), SchemeSignature(direct.Scheme); got != want {
					t.Fatalf("scheme signature %q, BuildPair has %q", got, want)
				}
				if !reflect.DeepEqual(cached.Pairs, direct.Pairs) {
					t.Fatalf("candidate pairs differ: %d vs %d", len(cached.Pairs), len(direct.Pairs))
				}
				if !reflect.DeepEqual(cached.Y, direct.Y) {
					t.Fatalf("labels differ")
				}
				if len(cached.X) != len(direct.X) {
					t.Fatalf("%d feature rows, BuildPair has %d", len(cached.X), len(direct.X))
				}
				for i := range cached.X {
					for j := range cached.X[i] {
						if math.Float64bits(cached.X[i][j]) != math.Float64bits(direct.X[i][j]) {
							t.Fatalf("feature (%d,%d) differs: %v vs %v", i, j, cached.X[i][j], direct.X[i][j])
						}
					}
				}
			})
		}
	}
}

func TestCatalogCoversBuiltins(t *testing.T) {
	builtins := datagen.Builtins()
	if len(builtins) != 8 {
		t.Fatalf("catalog has %d datasets, want 8", len(builtins))
	}
	for _, b := range builtins {
		got := MustDataset(b.Key)
		if got.Key != b.Key || got.Seed != b.Seed {
			t.Errorf("%s: lookup returned %s seed %d, want seed %d", b.Key, got.Key, got.Seed, b.Seed)
		}
	}
	if _, ok := DatasetByKey("no-such-dataset"); ok {
		t.Errorf("unknown key reported as present")
	}
	refs := PaperTaskRefs()
	if len(refs) != 8 {
		t.Fatalf("paper task refs = %d, want 8", len(refs))
	}
	if got := refs[0].Name(); got != "DBLP-ACM -> DBLP-Scholar" {
		t.Errorf("task name = %q", got)
	}
	if len(RepresentativeTaskRefs()) != 3 {
		t.Errorf("representative task refs = %d, want 3", len(RepresentativeTaskRefs()))
	}
}

func TestDataFingerprint(t *testing.T) {
	db := &dataset.Database{
		Name:   "a",
		Schema: dataset.Schema{Attributes: []dataset.Attribute{{Name: "n", Type: dataset.AttrName}}},
		Records: []dataset.Record{
			{ID: "r1", EntityID: "e1", Values: []string{"ann"}},
			{ID: "r2", EntityID: "e2", Values: []string{"bob"}},
		},
	}
	base := DataFingerprint(db)
	if base.Hex() == "" || len(base.Hex()) != 64 {
		t.Fatalf("Hex() = %q, want 64 hex chars", base.Hex())
	}

	// The display name must not matter.
	renamed := *db
	renamed.Name = "other"
	if DataFingerprint(&renamed) != base {
		t.Errorf("renaming the database changed the fingerprint")
	}

	// Any content change must.
	changedVal := *db
	changedVal.Records = append([]dataset.Record(nil), db.Records...)
	changedVal.Records[1] = dataset.Record{ID: "r2", EntityID: "e2", Values: []string{"rob"}}
	if DataFingerprint(&changedVal) == base {
		t.Errorf("changing a value did not change the fingerprint")
	}
	changedEnt := *db
	changedEnt.Records = append([]dataset.Record(nil), db.Records...)
	changedEnt.Records[1] = dataset.Record{ID: "r2", EntityID: "e9", Values: []string{"bob"}}
	if DataFingerprint(&changedEnt) == base {
		t.Errorf("changing an entity id did not change the fingerprint")
	}
	changedSchema := *db
	changedSchema.Schema = dataset.Schema{Attributes: []dataset.Attribute{{Name: "n", Type: dataset.AttrText}}}
	if DataFingerprint(&changedSchema) == base {
		t.Errorf("changing an attribute type did not change the fingerprint")
	}
}

// TestCompareKeyExcludesWorkers: a feature matrix's identity is the
// scheme signature over its candidate pairs. The worker count is not
// part of it — the matrix is bit for bit the same at every worker
// count — while quantisation, the missing-value policy and an extra
// comparator each change it.
func TestCompareKeyExcludesWorkers(t *testing.T) {
	p := datagen.Builtins()[0].Generate(0.02)
	a, b := BuildPair(p, 1), BuildPair(p, 8)
	if SchemeSignature(a.Scheme) != SchemeSignature(b.Scheme) {
		t.Errorf("worker count leaked into the scheme signature")
	}
	if len(a.X) == 0 || len(a.X) != len(b.X) {
		t.Fatalf("%d feature rows at 1 worker, %d at 8", len(a.X), len(b.X))
	}
	for i := range a.X {
		for j := range a.X[i] {
			if math.Float64bits(a.X[i][j]) != math.Float64bits(b.X[i][j]) {
				t.Fatalf("feature [%d][%d] is %v at 1 worker, %v at 8", i, j, a.X[i][j], b.X[i][j])
			}
		}
	}
	sig := SchemeSignature(a.Scheme)
	c := a.Scheme
	c.Quantize = 0.01
	if SchemeSignature(c) == sig {
		t.Errorf("quantisation step must change the compare identity")
	}
	d := a.Scheme
	d.Missing = compare.MissingHalf
	if SchemeSignature(d) == sig {
		t.Errorf("missing policy must change the compare identity")
	}
	e := a.Scheme
	e.Comparators = append(append([]compare.Comparator(nil), a.Scheme.Comparators...),
		compare.Comparator{Attr: 0, Name: "extra_exact", Sim: compare.ExactMatch()})
	if SchemeSignature(e) == sig {
		t.Errorf("extra comparator must change the compare identity")
	}
}

func TestSchemeSignature(t *testing.T) {
	sch := dataset.Schema{Attributes: []dataset.Attribute{
		{Name: "n", Type: dataset.AttrName},
		{Name: "y", Type: dataset.AttrYear},
	}}
	s := compare.DefaultScheme(sch)
	sig := SchemeSignature(s)
	for _, want := range []string{"n_jw", "y_yr", "quantize=0.05"} {
		if !strings.Contains(sig, want) {
			t.Errorf("signature %q lacks %q", sig, want)
		}
	}
	if SchemeSignature(compare.DefaultScheme(sch)) != sig {
		t.Errorf("equal schemes produced different signatures")
	}
	// Every setting that changes the feature vectors changes the
	// signature.
	q := s
	q.Quantize = 0.01
	if SchemeSignature(q) == sig {
		t.Errorf("Quantize did not change the scheme signature")
	}
	m := s
	m.Missing = compare.MissingHalf
	if SchemeSignature(m) == sig {
		t.Errorf("Missing did not change the scheme signature")
	}
	e := s
	e.Comparators = append(append([]compare.Comparator(nil), s.Comparators...),
		compare.Comparator{Attr: 0, Name: "n_exact", Sim: compare.ExactMatch()})
	if SchemeSignature(e) == sig {
		t.Errorf("an extra comparator did not change the scheme signature")
	}
}
