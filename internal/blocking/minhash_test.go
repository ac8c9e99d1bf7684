package blocking

import (
	"fmt"
	"math/rand"
	"testing"

	"transer/internal/dataset"
)

func testDBs() (*dataset.Database, *dataset.Database) {
	sch := dataset.Schema{Attributes: []dataset.Attribute{
		{Name: "name", Type: dataset.AttrName},
		{Name: "city", Type: dataset.AttrText},
	}}
	a := &dataset.Database{Name: "A", Schema: sch, Records: []dataset.Record{
		{ID: "a1", EntityID: "e1", Values: []string{"john smith", "portree"}},
		{ID: "a2", EntityID: "e2", Values: []string{"mary macleod", "kilmarnock"}},
		{ID: "a3", EntityID: "e3", Values: []string{"william fraser", "irvine"}},
	}}
	b := &dataset.Database{Name: "B", Schema: sch, Records: []dataset.Record{
		{ID: "b1", EntityID: "e1", Values: []string{"jon smith", "portree"}},
		{ID: "b2", EntityID: "e2", Values: []string{"mary mcleod", "kilmarnok"}},
		{ID: "b3", EntityID: "e9", Values: []string{"zzz qqq", "xxxyyy"}},
	}}
	return a, b
}

func TestCandidatePairsFindsNearDuplicates(t *testing.T) {
	a, b := testDBs()
	pairs := CandidatePairs(a, b, MinHashConfig{Seed: 1})
	ps := make(dataset.PairSet)
	for _, p := range pairs {
		ps[p] = true
	}
	if !ps.Contains(0, 0) {
		t.Errorf("expected (a1,b1) candidate pair, got %v", pairs)
	}
	if !ps.Contains(1, 1) {
		t.Errorf("expected (a2,b2) candidate pair, got %v", pairs)
	}
	// The junk record should not pair with everything.
	if ps.Contains(0, 2) && ps.Contains(1, 2) && ps.Contains(2, 2) {
		t.Errorf("junk record paired with every record")
	}
}

func TestCandidatePairsDeterministic(t *testing.T) {
	a, b := testDBs()
	p1 := CandidatePairs(a, b, MinHashConfig{Seed: 7})
	p2 := CandidatePairs(a, b, MinHashConfig{Seed: 7})
	if len(p1) != len(p2) {
		t.Fatalf("pair counts differ: %d vs %d", len(p1), len(p2))
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("pair %d differs: %v vs %v", i, p1[i], p2[i])
		}
	}
}

func TestCandidatePairsEmptyDB(t *testing.T) {
	a, _ := testDBs()
	empty := &dataset.Database{Name: "E", Schema: a.Schema}
	if pairs := CandidatePairs(a, empty, MinHashConfig{Seed: 1}); len(pairs) != 0 {
		t.Errorf("pairs against empty db: %v", pairs)
	}
	if pairs := CandidatePairs(empty, empty, MinHashConfig{Seed: 1}); len(pairs) != 0 {
		t.Errorf("pairs between empty dbs: %v", pairs)
	}
}

// syntheticPair builds two databases of near-duplicate word-composed
// records plus unrelated fillers, without depending on the datagen
// package (which itself uses blocking).
func syntheticPair(n int, seed int64) (*dataset.Database, *dataset.Database, dataset.PairSet) {
	rng := rand.New(rand.NewSource(seed))
	words := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot",
		"golf", "hotel", "india", "juliet", "kilo", "lima", "mike", "november"}
	sch := dataset.Schema{Attributes: []dataset.Attribute{{Name: "text", Type: dataset.AttrText}}}
	a := &dataset.Database{Name: "A", Schema: sch}
	b := &dataset.Database{Name: "B", Schema: sch}
	for i := 0; i < n; i++ {
		var toks []string
		for w := 0; w < 5; w++ {
			toks = append(toks, words[rng.Intn(len(words))])
		}
		val := fmt.Sprintf("%s %s %s %s %s x%d", toks[0], toks[1], toks[2], toks[3], toks[4], i)
		ent := fmt.Sprintf("e%d", i)
		a.Records = append(a.Records, dataset.Record{ID: fmt.Sprintf("a%d", i), EntityID: ent, Values: []string{val}})
		// B side: same value with one token swapped (a near duplicate).
		dup := fmt.Sprintf("%s %s %s %s %s x%d", toks[0], toks[1], words[rng.Intn(len(words))], toks[3], toks[4], i)
		b.Records = append(b.Records, dataset.Record{ID: fmt.Sprintf("b%d", i), EntityID: ent, Values: []string{dup}})
	}
	return a, b, dataset.GroundTruth(a, b)
}

func TestBlockingRecallOnSyntheticData(t *testing.T) {
	a, b, truth := syntheticPair(300, 1)
	pairs := CandidatePairs(a, b, MinHashConfig{Seed: 1})
	pc := PairsCompleteness(pairs, truth)
	if pc < 0.8 {
		t.Errorf("blocking recall %.3f too low (|truth|=%d, |pairs|=%d)", pc, len(truth), len(pairs))
	}
	rr := ReductionRatio(pairs, a, b)
	if rr < 0.5 {
		t.Errorf("reduction ratio %.3f too low — blocking admits too many pairs", rr)
	}
}

func TestPairsCompletenessEdge(t *testing.T) {
	if pc := PairsCompleteness(nil, dataset.PairSet{}); pc != 1 {
		t.Errorf("empty truth should give completeness 1, got %v", pc)
	}
	truth := dataset.PairSet{{A: 0, B: 0}: true, {A: 1, B: 1}: true}
	pairs := []dataset.Pair{{A: 0, B: 0}}
	if pc := PairsCompleteness(pairs, truth); pc != 0.5 {
		t.Errorf("completeness = %v, want 0.5", pc)
	}
}

func TestReductionRatioEdge(t *testing.T) {
	a := &dataset.Database{}
	if rr := ReductionRatio(nil, a, a); rr != 0 {
		t.Errorf("empty dbs should give 0, got %v", rr)
	}
}

func TestMinHashConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic for NumHashes not divisible by Bands")
		}
	}()
	a, b := testDBs()
	CandidatePairs(a, b, MinHashConfig{NumHashes: 10, Bands: 3})
}

func TestSignatureEmptyShingles(t *testing.T) {
	h := newMinHasher(8, 1)
	sig := h.signature(map[uint64]bool{})
	for _, v := range sig {
		if v != ^uint64(0) {
			t.Errorf("empty shingle set should give max signature")
		}
	}
}

func BenchmarkCandidatePairs(b *testing.B) {
	dbA, dbB, _ := syntheticPair(500, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CandidatePairs(dbA, dbB, MinHashConfig{Seed: 1})
	}
}
