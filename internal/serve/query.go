package serve

import (
	"fmt"
	"net/http"

	"transer/internal/dataset"
	"transer/internal/model"
	"transer/internal/obs"
	"transer/internal/query"
)

// QueryRequest is the body of POST /v1/query: a batch similarity join
// of two uploaded record sets (or a dedup self-join when B is empty)
// through the query engine (MinHash-LSH blocking), scored by the
// loaded model.
type QueryRequest struct {
	// A and B are the record sets to join. Empty B means a dedup
	// self-join of A (matches are index pairs i < j into A).
	A []RecordPayload `json:"a"`
	B []RecordPayload `json:"b,omitempty"`
	// Threshold keeps pairs with match probability >= Threshold; nil
	// defaults to the model's decision threshold.
	Threshold *float64 `json:"threshold,omitempty"`
	// Limit caps returned matches in deterministic index order (0 =
	// unlimited).
	Limit int `json:"limit,omitempty"`
	// Explain plans the query and returns the EXPLAIN rendering without
	// executing it.
	Explain bool `json:"explain,omitempty"`
}

// QueryMatch is one result pair; indices refer to the request's A and
// B arrays (both into A for a dedup query).
type QueryMatch struct {
	A           int     `json:"a"`
	B           int     `json:"b"`
	Probability float64 `json:"probability"`
	Match       bool    `json:"match"`
}

// QueryResponse is the body of a successful POST /v1/query.
type QueryResponse struct {
	Model  string `json:"model"`
	Schema string `json:"schema"`
	// Strategy names the blocking operator; always "lsh".
	Strategy string `json:"strategy"`
	// Plan is the EXPLAIN rendering (always present, so every response
	// documents how it was computed).
	Plan       string       `json:"plan"`
	Candidates int          `json:"candidates"`
	Count      int          `json:"count"`
	Matches    []QueryMatch `json:"matches,omitempty"`
	// Explain echoes the request flag; true means the query was planned
	// but not executed.
	Explain bool `json:"explain,omitempty"`
	// Provenance explains the executed matches when the request asked
	// for it (?explain=1 — distinct from the body's Explain flag, which
	// plans without executing).
	Provenance *QueryProvenance `json:"provenance,omitempty"`
}

// QueryProvenance is the execution provenance attached to
// POST /v1/query?explain=1: the request's trace ID, the exact model
// identity, and each returned match's per-comparator vector.
type QueryProvenance struct {
	TraceID          string   `json:"trace_id,omitempty"`
	ModelFingerprint string   `json:"model_fingerprint"`
	Threshold        float64  `json:"threshold"`
	Features         []string `json:"features"`
	// Vectors holds the comparison vector of each returned match, in
	// match order, aligned with Features.
	Vectors [][]float64 `json:"vectors,omitempty"`
}

// payloadDatabase converts uploaded records to a schema-conformant
// database under the matcher's schema. IDs are synthesised from the
// side and index so query matches are self-describing.
func (s *Server) payloadDatabase(m *model.Matcher, side string, payloads []RecordPayload) (*dataset.Database, error) {
	db := &dataset.Database{Name: side, Schema: m.Schema}
	for i, p := range payloads {
		r, err := m.RecordFromValues(p)
		if err != nil {
			return nil, fmt.Errorf("record %s[%d]: %w", side, i, err)
		}
		r.ID = fmt.Sprintf("%s%d", side, i)
		db.Records = append(db.Records, r)
	}
	return db, nil
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.A) == 0 {
		s.writeError(w, http.StatusBadRequest, "query request has no records in a")
		return
	}
	if n := len(req.A) + len(req.B); n > s.cfg.MaxBatchPairs {
		s.writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("query over %d records exceeds the limit of %d", n, s.cfg.MaxBatchPairs))
		return
	}
	e, err := s.ensembleFor(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	m := e.Primary()
	a, err := s.payloadDatabase(m, "a", req.A)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	var b *dataset.Database
	if len(req.B) > 0 {
		if b, err = s.payloadDatabase(m, "b", req.B); err != nil {
			s.writeError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	threshold := m.Artifact.Threshold
	if req.Threshold != nil {
		threshold = *req.Threshold
	}

	scheme := m.Scheme
	job := query.Job{
		A: a, B: b,
		Scheme:      &scheme,
		Scorer:      e,
		ScorerLabel: "model:" + e.Label(),
		Threshold:   threshold,
		Limit:       req.Limit,
		Workers:     s.cfg.Workers,
		// Operator spans nest under the request span, so /debug/traces
		// shows the full plan execution for captured query requests.
		Span:    obs.SpanFromContext(r.Context()),
		Metrics: s.metrics,
	}

	plan, err := query.PlanJob(job)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	resp := QueryResponse{
		Model:    e.Label(),
		Schema:   query.PlanSchemaVersion,
		Strategy: query.BlockStrategy,
		Plan:     plan.Explain(),
		Explain:  req.Explain,
	}
	if req.Explain {
		s.writeJSON(w, http.StatusOK, resp)
		return
	}

	res, err := query.Execute(r.Context(), job, plan)
	if err != nil {
		s.writeError(w, http.StatusServiceUnavailable, fmt.Sprintf("query aborted: %v", err))
		return
	}
	s.metrics.Counter("serve.query.candidates_total").Add(int64(res.Candidates))
	resp.Candidates = res.Candidates
	resp.Count = res.Kept
	resp.Matches = make([]QueryMatch, len(res.Matches))
	for i, match := range res.Matches {
		resp.Matches[i] = QueryMatch{
			A:           match.A,
			B:           match.B,
			Probability: match.Score,
			Match:       e.Decide(match.Score),
		}
	}
	if r.URL.Query().Get("explain") != "" {
		// For a single model this is the bare fingerprint (unchanged
		// from pre-repository responses); for an ensemble it is the
		// full reproducible selector.
		prov := &QueryProvenance{
			ModelFingerprint: e.Selector(),
			Threshold:        threshold,
			Features:         scheme.FeatureNames(),
			Vectors:          make([][]float64, len(res.Matches)),
		}
		if tc, ok := obs.TraceFromContext(r.Context()); ok {
			prov.TraceID = tc.TraceID.String()
		}
		// Recompute each kept match's comparison vector — exactly the
		// Pair the executed plan scored, so the explanation is the
		// decision, not a reconstruction.
		bRecs := a.Records
		if b != nil {
			bRecs = b.Records
		}
		for i, match := range res.Matches {
			prov.Vectors[i] = scheme.Pair(a.Records[match.A], bRecs[match.B])
		}
		resp.Provenance = prov
	}
	s.writeJSON(w, http.StatusOK, resp)
}
