package strutil

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSmithWaterman(t *testing.T) {
	if SmithWaterman("", "") != 1 {
		t.Errorf("empties should be 1")
	}
	if SmithWaterman("abc", "") != 0 {
		t.Errorf("one empty should be 0")
	}
	if SmithWaterman("hello", "hello") != 1 {
		t.Errorf("identical strings should be 1")
	}
	// Local alignment shines on shared substrings inside noise.
	sub := SmithWaterman("xxjohnxx", "john")
	if sub != 1 {
		t.Errorf("contained substring should align perfectly, got %v", sub)
	}
	far := SmithWaterman("aaaa", "zzzz")
	if far != 0 {
		t.Errorf("disjoint strings should be 0, got %v", far)
	}
	near := SmithWaterman("jonathan", "johnathan")
	if near < 0.7 {
		t.Errorf("near names should score high, got %v", near)
	}
}

func TestLongestCommonSubsequence(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"abcde", "ace", 3},
		{"abc", "def", 0},
		{"", "abc", 0},
		{"same", "same", 4},
		{"AGGTAB", "GXTXAYB", 4},
	}
	for _, c := range cases {
		if got := LongestCommonSubsequence(c.a, c.b); got != c.want {
			t.Errorf("LCSeq(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLCSeqSim(t *testing.T) {
	if LCSeqSim("", "") != 1 {
		t.Errorf("empties should be 1")
	}
	if LCSeqSim("abc", "") != 0 {
		t.Errorf("one empty should be 0")
	}
	if LCSeqSim("abc", "abc") != 1 {
		t.Errorf("identical should be 1")
	}
	v := LCSeqSim("abcde", "ace")
	if math.Abs(v-2*3.0/8.0) > 1e-12 {
		t.Errorf("LCSeqSim = %v", v)
	}
}

func TestOverlapCoefficient(t *testing.T) {
	if OverlapCoefficient("", "") != 1 {
		t.Errorf("empties should be 1")
	}
	if OverlapCoefficient("a b", "") != 0 {
		t.Errorf("one empty should be 0")
	}
	// Subset: abbreviation against full form.
	if v := OverlapCoefficient("intl conf data eng", "intl conf data eng proceedings ieee"); v != 1 {
		t.Errorf("subset tokens should give 1, got %v", v)
	}
	if v := OverlapCoefficient("a b c d", "c d e f"); v != 0.5 {
		t.Errorf("half overlap = %v", v)
	}
}

func TestPropertyExtraSimilarities(t *testing.T) {
	fns := map[string]func(a, b string) float64{
		"SmithWaterman": SmithWaterman,
		"LCSeqSim":      LCSeqSim,
		"Overlap":       OverlapCoefficient,
	}
	for name, fn := range fns {
		fn := fn
		prop := func(a, b string) bool {
			a, b = clip(a), clip(b)
			v := fn(a, b)
			if v < -1e-9 || v > 1+1e-9 || math.IsNaN(v) {
				return false
			}
			// identity
			return math.Abs(fn(a, a)-1) < 1e-9
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s property failed: %v", name, err)
		}
	}
}
