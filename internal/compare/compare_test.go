package compare

import (
	"testing"
	"testing/quick"

	"transer/internal/datagen"
	"transer/internal/dataset"
)

func bibScheme() (dataset.Schema, Scheme) {
	sch := dataset.Schema{Attributes: []dataset.Attribute{
		{Name: "title", Type: dataset.AttrText},
		{Name: "author", Type: dataset.AttrName},
		{Name: "code", Type: dataset.AttrCode},
		{Name: "year", Type: dataset.AttrYear},
		{Name: "len", Type: dataset.AttrNumeric},
	}}
	return sch, DefaultScheme(sch)
}

func TestDefaultSchemeShape(t *testing.T) {
	sch, s := bibScheme()
	if s.NumFeatures() != sch.NumAttributes() {
		t.Fatalf("features %d != attributes %d", s.NumFeatures(), sch.NumAttributes())
	}
	names := s.FeatureNames()
	if names[0] != "title_jac" || names[1] != "author_jw" || names[3] != "year_yr" {
		t.Errorf("feature names = %v", names)
	}
}

func TestPairIdenticalRecords(t *testing.T) {
	_, s := bibScheme()
	r := dataset.Record{ID: "r", Values: []string{"entity matching at scale", "john smith", "ab12", "1999", "180.0"}}
	x := s.Pair(r, r)
	for i, v := range x {
		if v != 1 {
			t.Errorf("feature %d of identical records = %v, want 1", i, v)
		}
	}
}

func TestPairDifferentRecords(t *testing.T) {
	_, s := bibScheme()
	a := dataset.Record{Values: []string{"entity matching", "john smith", "ab12", "1999", "180.0"}}
	b := dataset.Record{Values: []string{"quantum chemistry", "pqrs vwxy", "zz99", "1901", "960.0"}}
	x := s.Pair(a, b)
	for i, v := range x {
		// Jaro-Winkler floors around 0.3-0.5 even for unrelated names, so
		// only require clear separation from the match end of the scale.
		if v > 0.55 {
			t.Errorf("feature %d of unrelated records = %v, want well below match level", i, v)
		}
	}
}

func TestPairMissingValues(t *testing.T) {
	_, s := bibScheme()
	a := dataset.Record{Values: []string{"", "john smith", "ab12", "1999", "180.0"}}
	b := dataset.Record{Values: []string{"anything", "john smith", "ab12", "1999", "180.0"}}
	x := s.Pair(a, b)
	if x[0] != 0 {
		t.Errorf("missing value should score 0 under MissingZero, got %v", x[0])
	}
	s.Missing = MissingHalf
	x = s.Pair(a, b)
	if x[0] != 0.5 {
		t.Errorf("missing value should score 0.5 under MissingHalf, got %v", x[0])
	}
}

func TestYearComparator(t *testing.T) {
	_, s := bibScheme()
	a := dataset.Record{Values: []string{"t", "n", "c", "1990", "1"}}
	b := dataset.Record{Values: []string{"t", "n", "c", "1991", "1"}}
	x := s.Pair(a, b)
	if x[3] <= 0.5 || x[3] >= 1 {
		t.Errorf("adjacent years should score in (0.5, 1), got %v", x[3])
	}
	// Unparsable year falls back to exact.
	c := dataset.Record{Values: []string{"t", "n", "c", "unknown", "1"}}
	d := dataset.Record{Values: []string{"t", "n", "c", "unknown", "1"}}
	if x := s.Pair(c, d); x[3] != 1 {
		t.Errorf("identical unparsable years should score 1, got %v", x[3])
	}
}

func TestNumericComparator(t *testing.T) {
	_, s := bibScheme()
	a := dataset.Record{Values: []string{"t", "n", "c", "1990", "200.0"}}
	b := dataset.Record{Values: []string{"t", "n", "c", "1990", "210.0"}}
	x := s.Pair(a, b)
	if x[4] <= 0 || x[4] >= 1 {
		t.Errorf("5%% numeric difference should score in (0,1), got %v", x[4])
	}
}

func TestPropertyFeatureRange(t *testing.T) {
	_, s := bibScheme()
	prop := func(t1, a1, c1, t2, a2, c2 string, y1, y2 int16, n1, n2 float32) bool {
		ra := dataset.Record{Values: []string{t1, a1, c1, itoa(int(y1)), ftoa(float64(n1))}}
		rb := dataset.Record{Values: []string{t2, a2, c2, itoa(int(y2)), ftoa(float64(n2))}}
		for _, v := range s.Pair(ra, rb) {
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Errorf("feature out of [0,1]: %v", err)
	}
}

func itoa(v int) string { return fmtInt(v) }
func fmtInt(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	if neg {
		b = append([]byte{'-'}, b...)
	}
	return string(b)
}
func ftoa(v float64) string {
	return fmtInt(int(v))
}

func TestMeanSimilarity(t *testing.T) {
	ms := MeanSimilarity([][]float64{{1, 0}, {0.5, 0.5}, {}})
	if ms[0] != 0.5 || ms[1] != 0.5 || ms[2] != 0 {
		t.Errorf("MeanSimilarity = %v", ms)
	}
}

func TestBiModalDistributionOnGeneratedData(t *testing.T) {
	// The class-wise mean similarities must separate: matches high,
	// non-matches low — the premise of Figure 2.
	pair := datagen.DBLPACM(0.1)
	s := DefaultScheme(pair.A.Schema)
	truth := pair.Truth()
	var matchSum, nonSum float64
	var matchN, nonN int
	for i, ra := range pair.A.Records {
		for j, rb := range pair.B.Records {
			x := s.Pair(ra, rb)
			m := 0.0
			for _, v := range x {
				m += v
			}
			m /= float64(len(x))
			if truth.Contains(i, j) {
				matchSum += m
				matchN++
			} else {
				nonSum += m
				nonN++
			}
		}
	}
	if matchN == 0 || nonN == 0 {
		t.Fatal("degenerate generated data")
	}
	matchMean := matchSum / float64(matchN)
	nonMean := nonSum / float64(nonN)
	if matchMean < nonMean+0.3 {
		t.Errorf("classes not separated: match mean %.3f vs non-match mean %.3f", matchMean, nonMean)
	}
}

func BenchmarkPairComparison(b *testing.B) {
	_, s := bibScheme()
	ra := dataset.Record{Values: []string{"adaptive query processing in streams", "john smith, mary jones", "ab12", "1999", "180.0"}}
	rb := dataset.Record{Values: []string{"adaptive query processing for streams", "j smith, mary jones", "ab13", "2000", "181.0"}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Pair(ra, rb)
	}
}

func TestSchemeBuilder(t *testing.T) {
	_, base := bibScheme()
	// A custom scheme assembled from the comparator catalogue.
	s := Scheme{
		Comparators: []Comparator{
			{Attr: 0, Name: "title_sw", Sim: SmithWaterman()},
			{Attr: 1, Name: "author_me", Sim: MongeElkanJW()},
			{Attr: 3, Name: "year_w5", Sim: YearWindow(5)},
			{Attr: 4, Name: "len_20", Sim: NumericTolerance(0.2)},
		},
		Missing: MissingHalf,
	}
	if s.NumFeatures() != 4 {
		t.Fatalf("builder features = %d", s.NumFeatures())
	}
	a := dataset.Record{Values: []string{"entity matching", "john smith", "x", "1999", "100"}}
	b := dataset.Record{Values: []string{"entity matching", "jon smith", "x", "2001", "110"}}
	x := s.Pair(a, b)
	if x[0] != 1 {
		t.Errorf("identical titles should be 1, got %v", x[0])
	}
	if x[1] < 0.8 {
		t.Errorf("near names should be high, got %v", x[1])
	}
	if x[2] <= 0 || x[2] >= 1 {
		t.Errorf("2-year gap in 5-year window should be interior, got %v", x[2])
	}
	if x[3] <= 0 || x[3] >= 1 {
		t.Errorf("10%% diff at 20%% tolerance should be interior, got %v", x[3])
	}
	// The missing-value policy applies to custom schemes too.
	if got := s.Pair(dataset.Record{Values: []string{"", "x", "x", "1999", "100"}}, b)[0]; got != 0.5 {
		t.Errorf("missing title under MissingHalf = %v, want 0.5", got)
	}
	if base.Missing != MissingZero {
		t.Errorf("default scheme missing policy = %v, want MissingZero", base.Missing)
	}
	// extra named comparators behave
	if TokenOverlap()("a b", "a b c d") != 1 {
		t.Errorf("token overlap subset should be 1")
	}
	if ExactMatch()("x", "x") != 1 || ExactMatch()("x", "y") != 0 {
		t.Errorf("exact match broken")
	}
	if QGramJaccard(2)("abc", "abc") != 1 {
		t.Errorf("qgram jaccard identity broken")
	}
	if EditSimilarity()("abc", "abc") != 1 || DiceBigrams()("abc", "abc") != 1 {
		t.Errorf("edit/dice identity broken")
	}
	if LongestCommonSubsequence()("abc", "abc") != 1 {
		t.Errorf("lcs identity broken")
	}
	if JaroWinkler()("abc", "abc") != 1 || TokenJaccard()("a b", "a b") != 1 {
		t.Errorf("jw/jaccard identity broken")
	}
}
