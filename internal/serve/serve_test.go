package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"transer/internal/compare"
	"transer/internal/dataset"
	"transer/internal/ml"
	"transer/internal/ml/logreg"
	"transer/internal/model"
	"transer/internal/obs"
	"transer/internal/query"
	"transer/internal/testkit"
)

// TestMain wraps the suite in a goroutine-leak check: every handler,
// gate waiter and scoring worker must be gone once the tests finish.
func TestMain(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		for i := 0; i < 50; i++ {
			if runtime.NumGoroutine() <= before {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			fmt.Fprintf(os.Stderr, "goroutine leak: %d before, %d after\n%s\n", before, after, buf[:n])
			code = 1
		}
	}
	os.Exit(code)
}

// trainedMatcher builds a real artifact end to end: a logreg trained
// on comparison vectors of a generated database pair, exported and
// re-loaded through the serialised form.
func trainedMatcher(tb testing.TB) *model.Matcher {
	tb.Helper()
	rng := rand.New(rand.NewSource(7))
	a, b := testkit.DatabasePair(rng, 40)
	scheme := compare.DefaultScheme(a.Schema)
	var x [][]float64
	var y []int
	for _, ra := range a.Records {
		for _, rb := range b.Records {
			x = append(x, scheme.Pair(ra, rb))
			if ra.EntityID == rb.EntityID {
				y = append(y, 1)
			} else {
				y = append(y, 0)
			}
		}
	}
	clf := logreg.New(logreg.Config{})
	if err := clf.Fit(x, y); err != nil {
		tb.Fatalf("Fit: %v", err)
	}
	art, err := model.New("test-model", clf, a.Schema, scheme)
	if err != nil {
		tb.Fatalf("model.New: %v", err)
	}
	enc, err := art.Encode()
	if err != nil {
		tb.Fatalf("Encode: %v", err)
	}
	dec, err := model.Decode(enc)
	if err != nil {
		tb.Fatalf("Decode: %v", err)
	}
	m, err := model.NewMatcher(dec)
	if err != nil {
		tb.Fatalf("NewMatcher: %v", err)
	}
	return m
}

func newTestServer(tb testing.TB, cfg Config) *Server {
	tb.Helper()
	if cfg.Registry == nil {
		cfg.Registry = StaticRegistry(trainedMatcher(tb))
	}
	s, err := New(cfg)
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	return s
}

func postJSON(tb testing.TB, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	tb.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		tb.Fatalf("marshal: %v", err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func getJSON(tb testing.TB, h http.Handler, path string, into any) *httptest.ResponseRecorder {
	tb.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	if into != nil {
		if err := json.Unmarshal(w.Body.Bytes(), into); err != nil {
			tb.Fatalf("GET %s: invalid JSON %q: %v", path, w.Body.String(), err)
		}
	}
	return w
}

func samplePair() MatchRequest {
	return MatchRequest{
		A: RecordPayload{"name": "willow tam", "desc": "quiet river harbour", "year": "1987"},
		B: RecordPayload{"name": "willow tam", "desc": "quiet river harbor", "year": "1987"},
	}
}

func TestMatchEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	w := postJSON(t, h, "/v1/match", samplePair())
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp MatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("response not JSON: %v", err)
	}
	m := s.reg.Matcher()
	// The endpoint must reproduce the matcher's own scoring exactly.
	ra, _ := m.RecordFromValues(samplePair().A)
	rb, _ := m.RecordFromValues(samplePair().B)
	x := m.Vector(ra, rb)
	want := m.Score([][]float64{x}, 1)[0]
	if resp.Probability != want {
		t.Errorf("endpoint probability %v, matcher scores %v", resp.Probability, want)
	}
	if resp.Match != m.Decide(want) {
		t.Errorf("endpoint decision %v inconsistent with threshold", resp.Match)
	}
	if len(resp.Vector) != len(m.Scheme.FeatureNames()) {
		t.Errorf("vector has %d features, scheme %d", len(resp.Vector), len(m.Scheme.FeatureNames()))
	}
	if resp.Model != "test-model" {
		t.Errorf("model name %q", resp.Model)
	}
}

func TestMatchRejectsBadInput(t *testing.T) {
	h := newTestServer(t, Config{}).Handler()
	cases := map[string]any{
		"unknown attribute": MatchRequest{A: RecordPayload{"nom": "x"}, B: RecordPayload{}},
		"unknown field":     map[string]any{"a": map[string]string{}, "b": map[string]string{}, "typo": 1},
	}
	for name, body := range cases {
		if w := postJSON(t, h, "/v1/match", body); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", name, w.Code, w.Body.String())
		}
	}
	// Wrong method → 405 from the method-scoped mux pattern.
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/match", nil))
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/match: status %d, want 405", w.Code)
	}
}

// TestBatchDeterministicAcrossWorkers is the serving determinism
// guarantee: the full response body is byte-identical for every worker
// pool size (run under -race in CI).
func TestBatchDeterministicAcrossWorkers(t *testing.T) {
	reg := StaticRegistry(trainedMatcher(t))
	rng := rand.New(rand.NewSource(3))
	a, b := testkit.DatabasePair(rng, 40)
	var req BatchRequest
	for len(req.Pairs) < 2*query.CompareBlock+17 {
		for _, ra := range a.Records {
			for _, rb := range b.Records {
				req.Pairs = append(req.Pairs, MatchRequest{
					A: RecordPayload{"name": ra.Values[0], "desc": ra.Values[1], "year": ra.Values[2]},
					B: RecordPayload{"name": rb.Values[0], "desc": rb.Values[1], "year": rb.Values[2]},
				})
			}
		}
	}
	if len(req.Pairs) < 2*query.CompareBlock {
		t.Fatalf("batch of %d pairs does not span multiple scoring blocks", len(req.Pairs))
	}
	var want []byte
	for _, workers := range []int{1, 2, 3, 0} {
		s := newTestServer(t, Config{Registry: reg, Workers: workers, MaxBatchPairs: len(req.Pairs)})
		w := postJSON(t, s.Handler(), "/v1/match/batch", req)
		if w.Code != http.StatusOK {
			t.Fatalf("workers=%d: status %d: %s", workers, w.Code, w.Body.String())
		}
		if want == nil {
			want = w.Body.Bytes()
			continue
		}
		if !bytes.Equal(want, w.Body.Bytes()) {
			t.Fatalf("workers=%d: batch response differs from workers=1", workers)
		}
	}
	var resp BatchResponse
	if err := json.Unmarshal(want, &resp); err != nil {
		t.Fatalf("batch response not JSON: %v", err)
	}
	if resp.Count != len(req.Pairs) || len(resp.Results) != len(req.Pairs) {
		t.Fatalf("batch returned %d/%d results for %d pairs", resp.Count, len(resp.Results), len(req.Pairs))
	}
	for i, r := range resp.Results {
		if r.Index != i {
			t.Fatalf("result %d carries index %d", i, r.Index)
		}
	}
}

func TestBatchLimits(t *testing.T) {
	s := newTestServer(t, Config{MaxBatchPairs: 2})
	h := s.Handler()
	if w := postJSON(t, h, "/v1/match/batch", BatchRequest{}); w.Code != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", w.Code)
	}
	over := BatchRequest{Pairs: []MatchRequest{samplePair(), samplePair(), samplePair()}}
	if w := postJSON(t, h, "/v1/match/batch", over); w.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch: status %d, want 413", w.Code)
	}
}

// TestShedWhenSaturated fills the admission gate and verifies the next
// request is rejected with 429 + Retry-After instead of queueing.
func TestShedWhenSaturated(t *testing.T) {
	s := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: 1})
	h := s.Handler()
	// Occupy every ticket (slot + queue) directly.
	for i := 0; i < cap(s.gate.tickets); i++ {
		s.gate.tickets <- struct{}{}
	}
	w := postJSON(t, h, "/v1/match", samplePair())
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated server answered %d, want 429: %s", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Errorf("429 response lacks Retry-After")
	}
	// Metadata endpoints stay reachable while saturated.
	if w := getJSON(t, h, "/healthz", nil); w.Code != http.StatusOK {
		t.Errorf("healthz unavailable under saturation: %d", w.Code)
	}
	if got := s.metrics.Counter("serve.shed_total").Value(); got != 1 {
		t.Errorf("shed counter %d, want 1", got)
	}
	// Free the gate; service resumes.
	for i := 0; i < cap(s.gate.tickets); i++ {
		<-s.gate.tickets
	}
	if w := postJSON(t, h, "/v1/match", samplePair()); w.Code != http.StatusOK {
		t.Errorf("after draining the gate: status %d", w.Code)
	}
}

func TestScoreWithContextCancellation(t *testing.T) {
	m := trainedMatcher(t)
	x := make([][]float64, 4*query.CompareBlock)
	for i := range x {
		x[i] = make([]float64, len(m.Scheme.FeatureNames()))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := query.ScoreMatrix(ctx, m, x, 2); err == nil {
		t.Fatalf("scoring under a canceled context must fail")
	}
	got, err := query.ScoreMatrix(context.Background(), m, x, 2)
	if err != nil || len(got) != len(x) {
		t.Fatalf("uncanceled scoring: %v, %d results", err, len(got))
	}
}

func TestGateContextWhileQueued(t *testing.T) {
	g := newGate(1, 4)
	if err := g.acquire(context.Background()); err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := g.acquire(ctx); err != context.DeadlineExceeded {
		t.Fatalf("queued acquire under deadline: %v", err)
	}
	g.release()
	// The abandoned ticket was returned: the gate is empty again.
	if err := g.acquire(context.Background()); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	g.release()
	if len(g.tickets) != 0 || len(g.slots) != 0 {
		t.Fatalf("gate leaked tickets: %d tickets, %d slots", len(g.tickets), len(g.slots))
	}
}

func TestModelsAndReload(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.json")
	writeConstantModel(t, path, 0.25)
	reg, err := NewModelRegistry(path)
	if err != nil {
		t.Fatalf("NewModelRegistry: %v", err)
	}
	s := newTestServer(t, Config{Registry: reg})
	h := s.Handler()

	var models ModelsResponse
	if w := getJSON(t, h, "/v1/models", &models); w.Code != http.StatusOK {
		t.Fatalf("GET /v1/models: %d", w.Code)
	}
	// The active model always leads the listing (with a catalog
	// attached, catalog entries follow it — TestModelsWithCatalog).
	if len(models.Models) == 0 || models.Models[0].Classifier != "constant" ||
		models.Models[0].Reloads != 0 || models.Models[0].Source != "active" {
		t.Fatalf("models response %+v", models)
	}

	probe := MatchRequest{A: RecordPayload{"title": "x"}, B: RecordPayload{"title": "x"}}
	var before MatchResponse
	json.Unmarshal(postJSON(t, h, "/v1/match", probe).Body.Bytes(), &before)
	if before.Probability != 0.25 {
		t.Fatalf("initial model scores %v, want 0.25", before.Probability)
	}

	// Swap the artifact on disk and hot-reload.
	writeConstantModel(t, path, 0.75)
	if w := postJSON(t, h, "/v1/models/reload", struct{}{}); w.Code != http.StatusOK {
		t.Fatalf("reload: %d: %s", w.Code, w.Body.String())
	}
	var after MatchResponse
	json.Unmarshal(postJSON(t, h, "/v1/match", probe).Body.Bytes(), &after)
	if after.Probability != 0.75 {
		t.Fatalf("reloaded model scores %v, want 0.75", after.Probability)
	}

	// A corrupt artifact must fail the reload and keep the old model.
	if err := os.WriteFile(path, []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	if w := postJSON(t, h, "/v1/models/reload", struct{}{}); w.Code != http.StatusInternalServerError {
		t.Fatalf("corrupt reload: %d, want 500", w.Code)
	}
	var still MatchResponse
	json.Unmarshal(postJSON(t, h, "/v1/match", probe).Body.Bytes(), &still)
	if still.Probability != 0.75 {
		t.Fatalf("after failed reload the server scores %v, want the previous 0.75", still.Probability)
	}
}

func writeConstantModel(tb testing.TB, path string, p float64) {
	tb.Helper()
	sch := dataset.Schema{Attributes: []dataset.Attribute{{Name: "title", Type: dataset.AttrName}}}
	art, err := model.New("const-model", &ml.Constant{P: p}, sch, compare.DefaultScheme(sch))
	if err != nil {
		tb.Fatalf("model.New: %v", err)
	}
	if err := art.WriteFile(path); err != nil {
		tb.Fatalf("WriteFile: %v", err)
	}
}

func TestHealthAndMetrics(t *testing.T) {
	tr := obs.New("serve-test")
	s := newTestServer(t, Config{Tracer: tr})
	h := s.Handler()

	var health HealthResponse
	if w := getJSON(t, h, "/healthz", &health); w.Code != http.StatusOK {
		t.Fatalf("healthz: %d", w.Code)
	}
	if health.Status != "ok" || health.Model != "test-model" {
		t.Errorf("health response %+v", health)
	}

	// Generate some traffic, then check the snapshot reflects it.
	for i := 0; i < 3; i++ {
		if w := postJSON(t, h, "/v1/match", samplePair()); w.Code != http.StatusOK {
			t.Fatalf("match %d: %d", i, w.Code)
		}
	}
	var metrics MetricsResponse
	if w := getJSON(t, h, "/metrics", &metrics); w.Code != http.StatusOK {
		t.Fatalf("metrics: %d", w.Code)
	}
	if metrics.Schema != MetricsSchemaVersion {
		t.Errorf("metrics schema %q, want %q", metrics.Schema, MetricsSchemaVersion)
	}
	if got := metrics.Metrics.Counters["serve.requests_total"]; got != 3 {
		t.Errorf("requests_total %d, want 3", got)
	}
	if got := metrics.Metrics.Counters["serve.match.requests_total"]; got != 3 {
		t.Errorf("match.requests_total %d, want 3", got)
	}
	lat, ok := metrics.Metrics.Histograms["serve.request_seconds"]
	if !ok || lat.Count != 3 {
		t.Errorf("latency histogram %+v", lat)
	}
	if metrics.UptimeSeconds <= 0 {
		t.Errorf("uptime %v", metrics.UptimeSeconds)
	}

	// The tracer recorded sampled request spans.
	found := false
	for _, c := range childNames(tr) {
		if strings.HasPrefix(c, "request:match") {
			found = true
		}
	}
	if !found {
		t.Errorf("tracer has no request spans: %v", childNames(tr))
	}
}

func childNames(tr *obs.Tracer) []string {
	var out []string
	for _, c := range tr.Root().Children() {
		out = append(out, c.Name())
	}
	return out
}

// TestSpanSampleCap verifies the span tree stays bounded: only the
// first SpanSample requests record spans, while metrics keep counting.
func TestSpanSampleCap(t *testing.T) {
	tr := obs.New("serve-test")
	s := newTestServer(t, Config{Tracer: tr, SpanSample: 2})
	h := s.Handler()
	for i := 0; i < 5; i++ {
		if w := postJSON(t, h, "/v1/match", samplePair()); w.Code != http.StatusOK {
			t.Fatalf("match %d: %d", i, w.Code)
		}
	}
	if n := len(tr.Root().Children()); n != 2 {
		t.Errorf("span tree has %d request spans, want the sample cap 2", n)
	}
	if got := s.metrics.Counter("serve.requests_total").Value(); got != 5 {
		t.Errorf("requests_total %d, want 5 (metrics must not be sampled)", got)
	}
}

func BenchmarkServeMatch(b *testing.B) {
	s := newTestServer(b, Config{})
	h := s.Handler()
	body, err := json.Marshal(samplePair())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/match", bytes.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d", w.Code)
		}
	}
}

func BenchmarkServeBatch(b *testing.B) {
	s := newTestServer(b, Config{})
	h := s.Handler()
	req := BatchRequest{}
	for i := 0; i < 256; i++ {
		req.Pairs = append(req.Pairs, samplePair())
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := httptest.NewRequest(http.MethodPost, "/v1/match/batch", bytes.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d", w.Code)
		}
	}
}

// TestNoQueueConfig: MaxQueue 0 keeps the default queue, a negative
// value disables queueing entirely — with every slot busy the very
// next request sheds instead of waiting.
func TestNoQueueConfig(t *testing.T) {
	reg := StaticRegistry(trainedMatcher(t))
	dflt := newTestServer(t, Config{Registry: reg})
	if got := cap(dflt.gate.tickets) - cap(dflt.gate.slots); got != 64 {
		t.Errorf("default queue depth %d, want 64", got)
	}
	s := newTestServer(t, Config{Registry: reg, MaxInFlight: 2, MaxQueue: -1})
	if got, want := cap(s.gate.tickets), cap(s.gate.slots); got != want {
		t.Fatalf("no-queue server has %d tickets for %d slots", got, want)
	}
	s.gate.tickets <- struct{}{}
	s.gate.tickets <- struct{}{}
	w := postJSON(t, s.Handler(), "/v1/match", samplePair())
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("no-queue server with busy slots answered %d, want 429", w.Code)
	}
	<-s.gate.tickets
	<-s.gate.tickets
}
