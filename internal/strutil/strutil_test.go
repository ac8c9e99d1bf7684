package strutil

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almost(t *testing.T, got, want, eps float64, name string) {
	t.Helper()
	if math.Abs(got-want) > eps {
		t.Errorf("%s = %v, want %v (±%v)", name, got, want, eps)
	}
}

func TestJaroKnownValues(t *testing.T) {
	// Classic textbook value pairs.
	almost(t, Jaro("MARTHA", "MARHTA"), 0.944444, 1e-4, "Jaro(MARTHA,MARHTA)")
	almost(t, Jaro("DIXON", "DICKSONX"), 0.766667, 1e-4, "Jaro(DIXON,DICKSONX)")
	almost(t, Jaro("JELLYFISH", "SMELLYFISH"), 0.896296, 1e-4, "Jaro(JELLYFISH,SMELLYFISH)")
}

func TestJaroEdgeCases(t *testing.T) {
	if Jaro("", "") != 1 {
		t.Errorf("Jaro of two empty strings should be 1")
	}
	if Jaro("abc", "") != 0 {
		t.Errorf("Jaro with one empty string should be 0")
	}
	if Jaro("a", "a") != 1 {
		t.Errorf("Jaro of identical single chars should be 1")
	}
	if Jaro("ab", "cd") != 0 {
		t.Errorf("Jaro of disjoint strings should be 0")
	}
}

func TestJaroWinklerKnownValues(t *testing.T) {
	almost(t, JaroWinkler("MARTHA", "MARHTA"), 0.961111, 1e-4, "JW(MARTHA,MARHTA)")
	almost(t, JaroWinkler("DWAYNE", "DUANE"), 0.84, 1e-2, "JW(DWAYNE,DUANE)")
	if JaroWinkler("smith", "smith") != 1 {
		t.Errorf("JW of identical strings should be 1")
	}
}

func TestJaroWinklerBoostsPrefix(t *testing.T) {
	// Shared prefix should be rewarded over a same-Jaro pair without one.
	withPrefix := JaroWinkler("prefixed", "prefixes")
	plain := Jaro("prefixed", "prefixes")
	if withPrefix <= plain {
		t.Errorf("JaroWinkler (%v) should exceed Jaro (%v) when prefix shared", withPrefix, plain)
	}
}

func TestLevenshteinKnownValues(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"", "abc", 3},
		{"abc", "", 3},
		{"same", "same", 0},
		{"a", "b", 1},
		{"gumbo", "gambol", 2},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestEditSim(t *testing.T) {
	if EditSim("", "") != 1 {
		t.Errorf("EditSim of empties should be 1")
	}
	almost(t, EditSim("kitten", "sitting"), 1-3.0/7.0, 1e-9, "EditSim(kitten,sitting)")
	if EditSim("abc", "abc") != 1 {
		t.Errorf("EditSim of identical strings should be 1")
	}
	if EditSim("abc", "xyz") != 0 {
		t.Errorf("EditSim of fully different equal-length strings should be 0")
	}
}

func TestTokens(t *testing.T) {
	got := Tokens("The Quick-Brown  fox, 42!")
	want := []string{"the", "quick", "brown", "fox", "42"}
	if len(got) != len(want) {
		t.Fatalf("Tokens = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Tokens[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if Tokens("") != nil && len(Tokens("")) != 0 {
		t.Errorf("Tokens of empty string should be empty")
	}
}

func TestQGrams(t *testing.T) {
	grams := QGrams("ab", 2)
	// padded: #ab$ -> #a, ab, b$
	want := []string{"#a", "ab", "b$"}
	if len(grams) != len(want) {
		t.Fatalf("QGrams = %v, want %v", grams, want)
	}
	for i := range want {
		if grams[i] != want[i] {
			t.Errorf("QGrams[%d] = %q want %q", i, grams[i], want[i])
		}
	}
	if QGrams("", 2) != nil {
		t.Errorf("QGrams of empty string should be nil")
	}
	if QGrams("abc", 0) != nil {
		t.Errorf("QGrams with q=0 should be nil")
	}
}

func TestJaccardTokens(t *testing.T) {
	if JaccardTokens("data matching", "data matching") != 1 {
		t.Errorf("identical strings should have Jaccard 1")
	}
	almost(t, JaccardTokens("a b c", "b c d"), 0.5, 1e-9, "Jaccard(a b c, b c d)")
	if JaccardTokens("", "") != 1 {
		t.Errorf("two empty strings should compare as 1")
	}
	if JaccardTokens("abc", "") != 0 {
		t.Errorf("one empty string should compare as 0")
	}
	// Duplicated tokens must not inflate the intersection.
	almost(t, JaccardTokens("a a b", "a b b"), 1, 1e-9, "duplicate tokens collapse")
}

func TestDice(t *testing.T) {
	if Dice("night", "night") != 1 {
		t.Errorf("identical strings should have Dice 1")
	}
	if Dice("", "") != 1 {
		t.Errorf("two empties should have Dice 1")
	}
	if Dice("abc", "") != 0 {
		t.Errorf("one empty should have Dice 0")
	}
	d := Dice("night", "nacht")
	if d <= 0 || d >= 1 {
		t.Errorf("Dice(night, nacht) should be strictly between 0 and 1, got %v", d)
	}
}

func TestMongeElkan(t *testing.T) {
	if SymMongeElkan("peter christen", "christen peter") < 0.99 {
		t.Errorf("token order should not matter much for Monge-Elkan")
	}
	if MongeElkan("", "") != 1 {
		t.Errorf("empties should be 1")
	}
	if MongeElkan("abc", "") != 0 {
		t.Errorf("one empty should be 0")
	}
	a := SymMongeElkan("jon smith", "john smyth")
	if a < 0.7 {
		t.Errorf("near-identical names should score high, got %v", a)
	}
}

func TestExact(t *testing.T) {
	if Exact("  Foo ", "foo") != 1 {
		t.Errorf("Exact should trim and fold case")
	}
	if Exact("foo", "bar") != 0 {
		t.Errorf("Exact of different strings should be 0")
	}
}

func TestNumericSim(t *testing.T) {
	almost(t, NumericSim(10, 10, 5), 1, 1e-9, "identical")
	almost(t, NumericSim(10, 15, 5), 0, 1e-9, "at max diff")
	almost(t, NumericSim(10, 12.5, 5), 0.5, 1e-9, "half way")
	if NumericSim(math.NaN(), 1, 5) != 0 {
		t.Errorf("NaN input should give 0")
	}
	if NumericSim(3, 3, 0) != 1 || NumericSim(3, 4, 0) != 0 {
		t.Errorf("zero maxDiff should degenerate to exact equality")
	}
}

func TestYearSim(t *testing.T) {
	almost(t, YearSim(1970, 1971, 2), 0.5, 1e-9, "one year apart, tol 2")
	almost(t, YearSim(1970, 1970, 2), 1, 1e-9, "same year")
	almost(t, YearSim(1970, 1980, 2), 0, 1e-9, "far years")
}

// --- property-based tests -------------------------------------------------

// limit generated strings to something printable and short so quick
// exercises interesting cases rather than enormous random runes.
func clip(s string) string {
	if len(s) > 24 {
		s = s[:24]
	}
	return strings.ToValidUTF8(s, "")
}

func TestPropertySimilarityRangeAndSymmetry(t *testing.T) {
	type simFn struct {
		name string
		fn   func(a, b string) float64
		sym  bool
	}
	fns := []simFn{
		{"Jaro", Jaro, true},
		{"JaroWinkler", JaroWinkler, true},
		{"EditSim", EditSim, true},
		{"JaccardTokens", JaccardTokens, true},
		{"Dice", Dice, true},
		{"SymMongeElkan", SymMongeElkan, true},
	}
	for _, f := range fns {
		f := f
		prop := func(a, b string) bool {
			a, b = clip(a), clip(b)
			v := f.fn(a, b)
			if v < -1e-9 || v > 1+1e-9 || math.IsNaN(v) {
				return false
			}
			if f.sym {
				w := f.fn(b, a)
				if math.Abs(v-w) > 1e-9 {
					return false
				}
			}
			// identity: sim(a,a) == 1
			return math.Abs(f.fn(a, a)-1) < 1e-9
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s violates range/symmetry/identity: %v", f.name, err)
		}
	}
}

func TestPropertyLevenshteinMetric(t *testing.T) {
	prop := func(a, b, c string) bool {
		a, b, c = clip(a), clip(b), clip(c)
		dab := Levenshtein(a, b)
		dba := Levenshtein(b, a)
		if dab != dba {
			return false // symmetry
		}
		if a == b && dab != 0 {
			return false // identity
		}
		if a != b && dab == 0 {
			return false // distinguishability
		}
		dac := Levenshtein(a, c)
		dcb := Levenshtein(c, b)
		return dab <= dac+dcb // triangle inequality
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Errorf("Levenshtein is not a metric: %v", err)
	}
}

func BenchmarkJaroWinkler(b *testing.B) {
	for i := 0; i < b.N; i++ {
		JaroWinkler("christen", "kristensen")
	}
}

func BenchmarkLevenshtein(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Levenshtein("entity resolution", "entity reconciliation")
	}
}

func BenchmarkJaccardTokens(b *testing.B) {
	for i := 0; i < b.N; i++ {
		JaccardTokens("deep learning for entity matching", "entity matching with deep learning models")
	}
}
