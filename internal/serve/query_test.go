package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"transer/internal/dataset"
	"transer/internal/testkit"
)

func payloads(db *dataset.Database) []RecordPayload {
	out := make([]RecordPayload, len(db.Records))
	for i, r := range db.Records {
		out[i] = RecordPayload{"name": r.Values[0], "desc": r.Values[1], "year": r.Values[2]}
	}
	return out
}

// TestQueryEndpoint runs a full linkage query through POST /v1/query
// and checks the plan, the matches and their threshold discipline.
func TestQueryEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	rng := rand.New(rand.NewSource(11))
	a, b := testkit.DatabasePair(rng, 30)

	w := postJSON(t, s.Handler(), "/v1/query", QueryRequest{A: payloads(a), B: payloads(b)})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp QueryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("response not JSON: %v", err)
	}
	if resp.Schema != "transer.query/v1" {
		t.Errorf("schema = %q", resp.Schema)
	}
	if resp.Strategy != "lsh" || !strings.Contains(resp.Plan, "block    strategy=lsh ") {
		t.Errorf("strategy %q, plan rendering lacks the lsh block line:\n%s", resp.Strategy, resp.Plan)
	}
	if resp.Count == 0 || len(resp.Matches) == 0 {
		t.Fatalf("query found no matches: %s", w.Body.String())
	}
	threshold := s.reg.Matcher().Artifact.Threshold
	for _, m := range resp.Matches {
		if m.A < 0 || m.A >= len(a.Records) || m.B < 0 || m.B >= len(b.Records) {
			t.Fatalf("match indices out of range: %+v", m)
		}
		if m.Probability < threshold {
			t.Fatalf("match below model threshold %v: %+v", threshold, m)
		}
		if !m.Match {
			t.Fatalf("kept match not decided as match: %+v", m)
		}
	}
}

// TestQueryExplainAndDedup checks explain-only planning (no execution)
// and the empty-B dedup self-join.
func TestQueryExplainAndDedup(t *testing.T) {
	s := newTestServer(t, Config{})
	rng := rand.New(rand.NewSource(13))
	a, _ := testkit.DatabasePair(rng, 25)
	reqs := payloads(a)
	// Plant an exact duplicate so dedup has something to find.
	reqs = append(reqs, reqs[3])

	w := postJSON(t, s.Handler(), "/v1/query", QueryRequest{A: reqs, Explain: true})
	if w.Code != http.StatusOK {
		t.Fatalf("explain status %d: %s", w.Code, w.Body.String())
	}
	var explain QueryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &explain); err != nil {
		t.Fatalf("explain response not JSON: %v", err)
	}
	if !explain.Explain || len(explain.Matches) != 0 || explain.Count != 0 {
		t.Fatalf("explain must plan without executing: %s", w.Body.String())
	}
	if !strings.Contains(explain.Plan, "self-join") {
		t.Errorf("dedup plan not marked self-join:\n%s", explain.Plan)
	}

	w = postJSON(t, s.Handler(), "/v1/query", QueryRequest{A: reqs})
	if w.Code != http.StatusOK {
		t.Fatalf("dedup status %d: %s", w.Code, w.Body.String())
	}
	var resp QueryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("dedup response not JSON: %v", err)
	}
	found := false
	for _, m := range resp.Matches {
		if m.A >= m.B {
			t.Fatalf("dedup match violates i<j: %+v", m)
		}
		if m.A == 3 && m.B == len(reqs)-1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("planted duplicate (3, %d) not found: %s", len(reqs)-1, w.Body.String())
	}
}

// TestQueryDeterministicAcrossWorkers demands byte-identical /v1/query
// responses for every worker pool size.
func TestQueryDeterministicAcrossWorkers(t *testing.T) {
	reg := StaticRegistry(trainedMatcher(t))
	rng := rand.New(rand.NewSource(17))
	a, b := testkit.DatabasePair(rng, 35)
	req := QueryRequest{A: payloads(a), B: payloads(b)}
	var want []byte
	for _, workers := range []int{1, 2, 3, 0} {
		s := newTestServer(t, Config{Registry: reg, Workers: workers})
		w := postJSON(t, s.Handler(), "/v1/query", req)
		if w.Code != http.StatusOK {
			t.Fatalf("workers=%d: status %d: %s", workers, w.Code, w.Body.String())
		}
		if want == nil {
			want = w.Body.Bytes()
			continue
		}
		if !bytes.Equal(want, w.Body.Bytes()) {
			t.Fatalf("workers=%d: response differs from workers=1", workers)
		}
	}
}

// TestQueryValidation covers the endpoint's 4xx paths.
func TestQueryValidation(t *testing.T) {
	s := newTestServer(t, Config{MaxBatchPairs: 10})
	h := s.Handler()
	if w := postJSON(t, h, "/v1/query", QueryRequest{}); w.Code != http.StatusBadRequest {
		t.Errorf("empty query: status %d, want 400", w.Code)
	}
	small := []RecordPayload{{"name": "ada"}, {"name": "ada"}}
	// Blocking is always LSH: a request naming a strategy is rejected
	// as an unknown field, not silently ignored.
	if w := postJSON(t, h, "/v1/query", map[string]any{"a": small, "block": "lsh"}); w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "unknown field") {
		t.Errorf("block field: status %d (%s), want 400 unknown field", w.Code, w.Body.String())
	}
	if w := postJSON(t, h, "/v1/query", QueryRequest{A: []RecordPayload{{"nope": "x"}, {"name": "y"}}}); w.Code != http.StatusBadRequest {
		t.Errorf("unknown attribute: status %d, want 400", w.Code)
	}
	big := make([]RecordPayload, 11)
	for i := range big {
		big[i] = RecordPayload{"name": "r"}
	}
	if w := postJSON(t, h, "/v1/query", QueryRequest{A: big}); w.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized query: status %d, want 413", w.Code)
	}
	bad := 1.5
	if w := postJSON(t, h, "/v1/query", QueryRequest{A: small, Threshold: &bad}); w.Code != http.StatusBadRequest {
		t.Errorf("threshold 1.5: status %d, want 400", w.Code)
	}
}
