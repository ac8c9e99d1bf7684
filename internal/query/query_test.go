package query

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"transer/internal/dataset"
	"transer/internal/obs"
)

var firstNames = []string{
	"alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi",
	"ivan", "judy", "karl", "lena", "mike", "nina", "oscar", "peggy",
	"quinn", "rita", "steve", "trudy",
}

// testPair builds a two-attribute linkage pair with n records per side.
// The first matchCount B records duplicate their A counterpart exactly
// on the name attribute and with one token appended on the info
// attribute (token Jaccard 5/6 → 0.85 quantized), so the pair's mean
// feature similarity is 0.925 — above a 0.9 threshold — while every
// cross pair stays far below it.
func testPair(n, matchCount int) (a, b *dataset.Database) {
	schema := dataset.Schema{Attributes: []dataset.Attribute{
		{Name: "name", Type: dataset.AttrName},
		{Name: "info", Type: dataset.AttrText},
	}}
	name := func(i int) string {
		return fmt.Sprintf("%s family%04d", firstNames[i%len(firstNames)], i)
	}
	info := func(i int, extra bool) string {
		s := fmt.Sprintf("notes%04d zone%04d item%04d ref%04d meta%04d", i, i*7, i*13, i*29, i*31)
		if extra {
			s += " omega"
		}
		return s
	}
	a = &dataset.Database{Name: "qa", Schema: schema}
	b = &dataset.Database{Name: "qb", Schema: schema}
	for i := 0; i < n; i++ {
		a.Records = append(a.Records, dataset.Record{
			ID: fmt.Sprintf("a%04d", i), EntityID: fmt.Sprintf("e%04d", i),
			Values: []string{name(i), info(i, false)},
		})
	}
	for i := 0; i < n; i++ {
		if i < matchCount {
			b.Records = append(b.Records, dataset.Record{
				ID: fmt.Sprintf("b%04d", i), EntityID: fmt.Sprintf("e%04d", i),
				Values: []string{name(i), info(i, true)},
			})
			continue
		}
		j := i + 5*n // disjoint id space: no accidental matches
		b.Records = append(b.Records, dataset.Record{
			ID: fmt.Sprintf("b%04d", i), EntityID: fmt.Sprintf("x%04d", i),
			Values: []string{name(j), info(j, true)},
		})
	}
	return a, b
}

func mustPlan(t *testing.T, job Job) *Plan {
	t.Helper()
	plan, err := PlanJob(job)
	if err != nil {
		t.Fatalf("PlanJob: %v", err)
	}
	return plan
}

func mustRun(t *testing.T, job Job) *Result {
	t.Helper()
	res, err := Run(context.Background(), job)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// TestExplainDeterministic re-plans the same job and demands identical
// plan text naming the LSH block operator with its resolved
// configuration.
func TestExplainDeterministic(t *testing.T) {
	a, b := testPair(120, 30)
	job := Job{A: a, B: b, Threshold: 0.85, Limit: 10}
	e1 := mustPlan(t, job).Explain()
	e2 := mustPlan(t, job).Explain()
	if e1 != e2 {
		t.Fatalf("EXPLAIN not deterministic:\n%s\n----\n%s", e1, e2)
	}
	for _, frag := range []string{"plan: " + PlanSchemaVersion, "block    strategy=lsh hashes=60 bands=20 q=3\n", "filter   score >= 0.85", "limit    10"} {
		if !strings.Contains(e1, frag) {
			t.Fatalf("EXPLAIN missing %q:\n%s", frag, e1)
		}
	}
}

// TestWorkerCountInvariance renders the result of the same query under
// several worker counts and demands byte-identical output.
func TestWorkerCountInvariance(t *testing.T) {
	a, b := testPair(300, 60)
	var ref string
	for _, workers := range []int{1, 2, 7} {
		res := mustRun(t, Job{A: a, B: b, Threshold: 0.9, Workers: workers})
		got := fmt.Sprintf("%v|%d|%d", res.Matches, res.Candidates, res.Kept)
		if ref == "" {
			ref = got
			continue
		}
		if got != ref {
			t.Fatalf("workers=%d output differs:\n%s\nvs\n%s", workers, got, ref)
		}
	}
}

// TestSelfJoinDedup checks the nil-B dedup contract: candidates are
// restricted to i < j and a planted duplicate is found.
func TestSelfJoinDedup(t *testing.T) {
	a, _ := testPair(60, 0)
	dup := a.Records[7]
	dup.ID = "a-dup"
	a.Records = append(a.Records, dup)
	res := mustRun(t, Job{A: a, Threshold: 0.9})
	if !res.Plan.SelfJoin {
		t.Fatal("plan not marked self-join")
	}
	found := false
	for _, m := range res.Matches {
		if m.A >= m.B {
			t.Fatalf("self-join match violates i<j: %+v", m)
		}
		if m.A == 7 && m.B == len(a.Records)-1 {
			found = true
			if m.IDA != "a0007" || m.IDB != "a-dup" {
				t.Fatalf("match ids = %q,%q", m.IDA, m.IDB)
			}
		}
	}
	if !found {
		t.Fatalf("planted duplicate not found in %d matches", len(res.Matches))
	}
}

// TestComparatorOverrides wires a registry comparator into the derived
// scheme by attribute name, and rejects unknown names on both sides.
func TestComparatorOverrides(t *testing.T) {
	a, b := testPair(40, 10)
	job := Job{A: a, B: b, Threshold: 0.9, Comparators: map[string]string{"name": "smith_waterman"}}
	plan := mustPlan(t, job)
	names := plan.Scheme.FeatureNames()
	if names[0] != "name_smith_waterman" {
		t.Fatalf("feature names = %v, want name_smith_waterman first", names)
	}
	if _, err := PlanJob(Job{A: a, B: b, Comparators: map[string]string{"name": "nope"}}); err == nil {
		t.Fatal("unknown comparator name accepted")
	}
	if _, err := PlanJob(Job{A: a, B: b, Comparators: map[string]string{"missing_attr": "edit"}}); err == nil {
		t.Fatal("unknown attribute accepted")
	}
}

// TestJobValidation covers the resolve-time error paths.
func TestJobValidation(t *testing.T) {
	a, b := testPair(10, 2)
	if _, err := PlanJob(Job{Threshold: 0.5}); err == nil {
		t.Fatal("nil A accepted")
	}
	if _, err := PlanJob(Job{A: a, B: b, Threshold: 1.5}); err == nil {
		t.Fatal("threshold 1.5 accepted")
	}
	other := &dataset.Database{Name: "other", Schema: dataset.Schema{Attributes: []dataset.Attribute{{Name: "x", Type: dataset.AttrText}}}}
	if _, err := PlanJob(Job{A: a, B: other}); err == nil {
		t.Fatal("schema mismatch accepted")
	}
}

// TestLimitCapsMatchesNotKept checks Limit truncates the returned
// matches while Kept still counts every pair over the threshold.
func TestLimitCapsMatchesNotKept(t *testing.T) {
	a, b := testPair(80, 20)
	full := mustRun(t, Job{A: a, B: b, Threshold: 0.9})
	if full.Kept < 3 {
		t.Fatalf("need >= 3 matches for the limit test, got %d", full.Kept)
	}
	lim := mustRun(t, Job{A: a, B: b, Threshold: 0.9, Limit: 2})
	if len(lim.Matches) != 2 {
		t.Fatalf("limited matches = %d, want 2", len(lim.Matches))
	}
	if lim.Kept != full.Kept {
		t.Fatalf("limited Kept = %d, want %d", lim.Kept, full.Kept)
	}
	if !reflect.DeepEqual(lim.Matches, full.Matches[:2]) {
		t.Fatal("limited matches are not the deterministic prefix")
	}
}

// TestCancellation checks CompareMatrix and ScoreMatrix drop partial
// work and surface the context error.
func TestCancellation(t *testing.T) {
	a, b := testPair(100, 20)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, Job{A: a, B: b, Threshold: 0.9}); err == nil {
		t.Fatal("canceled run returned no error")
	}
	if _, err := ScoreMatrix(ctx, MeanScorer{}, [][]float64{{1}}, 1); err == nil {
		t.Fatal("canceled ScoreMatrix returned no error")
	}
}

// TestSpansAndMetrics checks each operator emits its span and the
// engine its counters — and that instrumentation does not change the
// result.
func TestSpansAndMetrics(t *testing.T) {
	a, b := testPair(60, 15)
	bare := mustRun(t, Job{A: a, B: b, Threshold: 0.9})

	tr := obs.New("query-test")
	job := Job{A: a, B: b, Threshold: 0.9, Span: tr.Root(), Metrics: tr.Metrics()}
	res := mustRun(t, job)
	if !reflect.DeepEqual(res.Matches, bare.Matches) {
		t.Fatal("instrumented run changed the result")
	}

	for _, name := range []string{"scan", "compare", "score", "filter"} {
		if tr.Root().Find(name) == nil {
			t.Fatalf("span %q missing", name)
		}
	}
	blockName := "block:" + BlockStrategy
	if tr.Root().Find(blockName) == nil {
		t.Fatalf("span %q missing", blockName)
	}
	snap := tr.Metrics().Snapshot()
	if snap.Counters["query.candidates_total"] <= 0 {
		t.Fatalf("query.candidates_total = %d", snap.Counters["query.candidates_total"])
	}
	if snap.Counters["query.matches_total"] != int64(res.Kept) {
		t.Fatalf("query.matches_total = %d, want %d", snap.Counters["query.matches_total"], res.Kept)
	}
}
