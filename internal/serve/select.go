package serve

// Model-repository surfaces: catalog listing on GET /v1/models, model
// selection on POST /v1/models/select, and the model= selector on the
// scoring endpoints. All of them are optional — a Server without
// Config.Catalog behaves exactly as before.

import (
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"transer/internal/blocking"
	"transer/internal/dataset"
	"transer/internal/model"
	"transer/internal/obs"
	"transer/internal/repo"
)

// SelectSchemaVersion identifies the POST /v1/models/select response
// document.
const SelectSchemaVersion = "transer.serve.select/v1"

// SelectRequest is the body of POST /v1/models/select: either a
// precomputed domain signature or sample records of the new target
// domain (the server computes the signature under the active model's
// schema).
type SelectRequest struct {
	// Signature is a transer.signature/v1 document (e.g. from
	// cmd/repo sign). When set, A and B must be empty.
	Signature *model.Signature `json:"signature,omitempty"`
	// A and B are sample record sets of the target domain; empty B
	// means a dedup view of A.
	A []RecordPayload `json:"a,omitempty"`
	B []RecordPayload `json:"b,omitempty"`
	// K asks for an ensemble of the top k models (default 1 = the
	// single best).
	K int `json:"k,omitempty"`
	// Limit caps the ranking returned for explanation (default 10,
	// -1 = all).
	Limit int `json:"limit,omitempty"`
}

// RankedModel is one explained entry of a selection ranking (the
// catalog entry trimmed of its signature payload).
type RankedModel struct {
	Fingerprint string          `json:"fingerprint"`
	Name        string          `json:"name"`
	Classifier  string          `json:"classifier"`
	SourceName  string          `json:"source_name,omitempty"`
	TargetName  string          `json:"target_name,omitempty"`
	Score       float64         `json:"score"`
	Components  repo.Components `json:"components"`
}

// SelectResponse is the body of a successful POST /v1/models/select.
type SelectResponse struct {
	Schema string `json:"schema"`
	// Selector is the chosen model selector, directly usable as the
	// model= parameter of the scoring endpoints ("fp" or "fp@w,fp@w").
	Selector string `json:"selector"`
	// Members are the chosen models with their normalised weights.
	Members []repo.Member `json:"members"`
	// Ranking explains the choice: every catalogued model scored
	// against the target signature, best first (capped by Limit).
	Ranking []RankedModel `json:"ranking"`
}

// ensembleFor resolves the request's model= selector to the scoring
// ensemble. No selector serves the active registry model — wrapped in
// a single-member ensemble, whose Score delegates straight to the
// matcher, so this path is byte-identical to serving without a
// catalog. A selector matching the active model's fingerprint (or a
// prefix of it) also serves the in-memory active matcher; anything
// else resolves through the catalog.
func (s *Server) ensembleFor(r *http.Request) (*repo.Ensemble, error) {
	sel := strings.TrimSpace(r.URL.Query().Get("model"))
	active := s.reg.Matcher()
	if sel == "" {
		return repo.Single(active), nil
	}
	if len(sel) >= 4 && strings.HasPrefix(active.Fingerprint(), sel) {
		return repo.Single(active), nil
	}
	if s.cfg.Catalog == nil {
		return nil, fmt.Errorf("model selector %q: no model repository configured (serve with -repo)", sel)
	}
	return s.cfg.Catalog.EnsembleFor(sel)
}

// catalogModels appends the catalog's entries to a models listing
// (active model first — the pre-repository response shape — catalog
// appended, skipping the entry that is the active model itself).
func (s *Server) catalogModels(models []ModelInfo) []ModelInfo {
	if s.cfg.Catalog == nil {
		return models
	}
	activeFP := ""
	if len(models) > 0 {
		activeFP = models[0].Fingerprint
	}
	for _, e := range s.cfg.Catalog.List() {
		if e.Fingerprint == activeFP {
			continue
		}
		models = append(models, ModelInfo{
			Name:        e.Name,
			Classifier:  e.Classifier,
			CreatedAt:   e.CreatedAt.UTC().Format(time.RFC3339),
			Threshold:   e.Threshold,
			Fingerprint: e.Fingerprint,
			Source:      "catalog",
		})
	}
	return models
}

func (s *Server) handleSelect(w http.ResponseWriter, r *http.Request) {
	var req SelectRequest
	if !s.decode(w, r, &req) {
		return
	}
	sig, err := s.targetSignature(r, req)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	limit := req.Limit
	if limit == 0 {
		limit = 10
	} else if limit < 0 {
		limit = 0
	}
	ranking := s.cfg.Catalog.Search(sig, limit, s.cfg.Workers)
	members := repo.Select(ranking, req.K)
	if len(members) == 0 {
		s.writeError(w, http.StatusNotFound,
			fmt.Sprintf("no catalogued model matches the target domain (%d models searched)", s.cfg.Catalog.Len()))
		return
	}
	selector := repo.FormatSelector(members)

	if sp := obs.SpanFromContext(r.Context()); sp != nil {
		sp.SetInt("catalog_size", int64(s.cfg.Catalog.Len()))
		sp.SetInt("members", int64(len(members)))
		sp.SetStr("selector", selector)
	}
	s.logger.LogAttrs(r.Context(), slog.LevelInfo, "serve.select",
		slog.String("selector", selector),
		slog.Int("catalog_size", s.cfg.Catalog.Len()),
		slog.Int("members", len(members)))
	s.metrics.Counter("serve.select.models_total").Add(int64(len(members)))

	resp := SelectResponse{
		Schema:   SelectSchemaVersion,
		Selector: selector,
		Members:  members,
		Ranking:  make([]RankedModel, len(ranking)),
	}
	for i, rk := range ranking {
		resp.Ranking[i] = RankedModel{
			Fingerprint: rk.Entry.Fingerprint,
			Name:        rk.Entry.Name,
			Classifier:  rk.Entry.Classifier,
			SourceName:  rk.Entry.SourceName,
			TargetName:  rk.Entry.TargetName,
			Score:       rk.Score,
			Components:  rk.Components,
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// targetSignature resolves a select request to the target domain's
// signature: validated as given, or computed from the sample records
// under the active model's schema.
func (s *Server) targetSignature(r *http.Request, req SelectRequest) (*model.Signature, error) {
	if req.Signature != nil {
		if len(req.A) > 0 || len(req.B) > 0 {
			return nil, fmt.Errorf("select request carries both a signature and sample records; send one")
		}
		if err := req.Signature.Validate(); err != nil {
			return nil, err
		}
		return req.Signature, nil
	}
	if len(req.A) == 0 {
		return nil, fmt.Errorf("select request needs a signature or sample records in a")
	}
	if n := len(req.A) + len(req.B); n > s.cfg.MaxBatchPairs {
		return nil, fmt.Errorf("select over %d records exceeds the limit of %d", n, s.cfg.MaxBatchPairs)
	}
	m := s.reg.Matcher()
	a, err := s.payloadDatabase(m, "a", req.A)
	if err != nil {
		return nil, err
	}
	var b *dataset.Database
	if len(req.B) > 0 {
		if b, err = s.payloadDatabase(m, "b", req.B); err != nil {
			return nil, err
		}
	}
	return repo.SignatureOf(r.Context(), a, b, blocking.MinHashConfig{}, s.cfg.Workers)
}
