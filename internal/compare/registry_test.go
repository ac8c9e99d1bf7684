package compare

import (
	"strings"
	"testing"

	"transer/internal/strutil"
)

// TestRegistryRoundTrip checks every registered name resolves to a
// function that agrees with the underlying strutil comparator on a
// spread of inputs — the name registry is the query engine's public
// comparator surface and must not drift from the implementations.
func TestRegistryRoundTrip(t *testing.T) {
	inputs := [][2]string{
		{"", ""},
		{"smith", ""},
		{"smith", "smith"},
		{"smith", "smyth"},
		{"jonathan archer", "j archer"},
		{"entity resolution in go", "entity resolution"},
		{"1987", "1989"},
		{"12.5", "13.0"},
	}
	want := map[string]SimFunc{
		"jaro_winkler":   strutil.JaroWinkler,
		"token_jaccard":  strutil.JaccardTokens,
		"qgram_jaccard":  func(a, b string) float64 { return strutil.JaccardQGrams(a, b, 3) },
		"edit":           strutil.EditSim,
		"dice":           strutil.Dice,
		"monge_elkan_jw": strutil.SymMongeElkan,
		"smith_waterman": strutil.SmithWaterman,
		"lcs":            strutil.LCSeqSim,
		"overlap":        strutil.OverlapCoefficient,
		"exact":          strutil.Exact,
	}
	for name, ref := range want {
		sim, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		for _, in := range inputs {
			if got, exp := sim(in[0], in[1]), ref(in[0], in[1]); got != exp {
				t.Errorf("%s(%q, %q) = %v, want %v", name, in[0], in[1], got, exp)
			}
		}
	}
}

func TestRegistryNamesAllResolve(t *testing.T) {
	names := RegistryNames()
	if len(names) < 12 {
		t.Fatalf("registry has %d comparators, want at least 12: %v", len(names), names)
	}
	for i, n := range names {
		if i > 0 && names[i-1] >= n {
			t.Fatalf("RegistryNames not sorted/unique at %q", n)
		}
		if _, err := ByName(n); err != nil {
			t.Errorf("listed name %q does not resolve: %v", n, err)
		}
	}
	for _, extra := range []string{"smith_waterman", "lcs", "overlap"} {
		found := false
		for _, n := range names {
			if n == extra {
				found = true
			}
		}
		if !found {
			t.Errorf("extra.go comparator %q missing from registry", extra)
		}
	}
}

func TestRegistryUnknownName(t *testing.T) {
	if _, err := ByName("no_such_comparator"); err == nil {
		t.Fatal("unknown comparator name accepted")
	} else if !strings.Contains(err.Error(), "no_such_comparator") {
		t.Fatalf("error does not name the offender: %v", err)
	}
}
