package serve

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"transer/internal/obs"
	"transer/internal/stream"
)

// obsStreamServer is streamServer with a structured logger wired into
// both the server and the entity store, as cmd/serve -log-out does.
func obsStreamServer(tb testing.TB, logBuf *bytes.Buffer) (*Server, *stream.Store) {
	tb.Helper()
	m := trainedMatcher(tb)
	tr := obs.New("serve-test")
	logger := obs.NewLogger(logBuf, slog.LevelDebug, tr.Metrics())
	cfg := stream.FromMatcher(m)
	cfg.Metrics = tr.Metrics()
	cfg.Logger = logger
	st, err := stream.NewStore(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	s := newTestServer(tb, Config{Registry: StaticRegistry(m), Tracer: tr, Logger: logger, Stream: st})
	return s, st
}

// logLines parses every JSONL event the logger emitted.
func logLines(tb testing.TB, buf *bytes.Buffer) []map[string]any {
	tb.Helper()
	var events []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			tb.Fatalf("log line not JSON: %q: %v", line, err)
		}
		events = append(events, ev)
	}
	return events
}

// TestTracePropagationEndToEnd is the PR's acceptance criterion at
// httptest level: a client traceparent flows through one resolve and
// comes back in the response header, the JSONL log, the tail-based
// trace capture, and the decision provenance.
func TestTracePropagationEndToEnd(t *testing.T) {
	var logBuf bytes.Buffer
	s, _ := obsStreamServer(t, &logBuf)
	h := s.Handler()

	rec := map[string]string{"name": "willow tam", "desc": "quiet river harbour", "year": "1987"}
	if w := postJSON(t, h, "/v1/ingest", streamPayload(rec, rec)); w.Code != http.StatusOK {
		t.Fatalf("ingest: %d: %s", w.Code, w.Body.String())
	}

	client := obs.NewTraceContext()
	body, err := json.Marshal(map[string]any{"attrs": rec})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/resolve?explain=1", bytes.NewReader(body))
	req.Header.Set("Traceparent", client.Traceparent())
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("resolve: %d: %s", w.Code, w.Body.String())
	}

	// 1. The response traceparent carries the client's trace ID (with a
	// fresh server-side span ID).
	echo, err := obs.ParseTraceparent(w.Header().Get("Traceparent"))
	if err != nil {
		t.Fatalf("response traceparent %q: %v", w.Header().Get("Traceparent"), err)
	}
	wantTrace := client.TraceID.String()
	if echo.TraceID.String() != wantTrace {
		t.Fatalf("response trace ID %s, want client's %s", echo.TraceID, wantTrace)
	}
	if echo.SpanID == client.SpanID {
		t.Fatal("server must mint a child span ID, not echo the client's")
	}

	// 2. The decision provenance is stamped with the same trace and the
	// model identity, and its vectors align with the feature names.
	var res ResolveResponse
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Provenance == nil {
		t.Fatal("?explain=1 resolve returned no provenance")
	}
	if res.Provenance.TraceID != wantTrace {
		t.Fatalf("provenance trace %s, want %s", res.Provenance.TraceID, wantTrace)
	}
	var models ModelsResponse
	getJSON(t, h, "/v1/models", &models)
	if len(models.Models) == 0 || models.Models[0].Fingerprint == "" {
		t.Fatalf("models response missing fingerprint: %+v", models)
	}
	if res.Provenance.ModelFingerprint != models.Models[0].Fingerprint {
		t.Fatalf("provenance fingerprint %s, /v1/models says %s",
			res.Provenance.ModelFingerprint, models.Models[0].Fingerprint)
	}
	if len(res.Provenance.Candidates) == 0 {
		t.Fatal("explain provenance has no candidates for a matching probe")
	}
	for _, c := range res.Provenance.Candidates {
		if len(c.Vector) != len(res.Provenance.Features) {
			t.Fatalf("candidate vector %v not aligned with features %v",
				c.Vector, res.Provenance.Features)
		}
	}
	if !res.Matched {
		t.Fatalf("probe should match the ingested duplicates: %+v", res.ResolveResult)
	}

	// 3. At least one JSONL event carries the trace ID.
	var hits int
	for _, ev := range logLines(t, &logBuf) {
		if ev["trace_id"] == wantTrace {
			hits++
		}
	}
	if hits == 0 {
		t.Fatalf("no log event carries trace %s:\n%s", wantTrace, logBuf.String())
	}

	// 4. The tail-based capture retains the request under the same ID.
	var traces TracesResponse
	getJSON(t, h, "/debug/traces", &traces)
	var captured bool
	for _, ct := range traces.Capture.Recent {
		if ct.TraceID == wantTrace && ct.Route == "resolve" {
			captured = true
			if ct.Span == nil {
				t.Error("captured resolve trace lost its span tree")
			}
		}
	}
	if !captured {
		t.Fatalf("trace %s not in /debug/traces recent: %+v", wantTrace, traces.Capture.Recent)
	}
}

// TestTraceMintedWhenHeaderAbsent checks requests without a client
// traceparent still get a valid trace assigned and echoed.
func TestTraceMintedWhenHeaderAbsent(t *testing.T) {
	s := newTestServer(t, Config{Tracer: obs.New("serve-test")})
	h := s.Handler()
	w := postJSON(t, h, "/v1/match", samplePair())
	if w.Code != http.StatusOK {
		t.Fatalf("match: %d: %s", w.Code, w.Body.String())
	}
	tc, err := obs.ParseTraceparent(w.Header().Get("Traceparent"))
	if err != nil {
		t.Fatalf("minted traceparent %q: %v", w.Header().Get("Traceparent"), err)
	}
	if !tc.Valid() {
		t.Fatalf("minted trace context invalid: %+v", tc)
	}
}

// TestDebugTracesOutliveSpanBudget is the SpanSample-bias regression
// at the HTTP level: with a tiny span budget and more requests than the
// ring holds, late requests and late errors are still retained — the
// old first-N sampling would have kept only the boring warm-up traffic.
func TestDebugTracesOutliveSpanBudget(t *testing.T) {
	s := newTestServer(t, Config{Tracer: obs.New("serve-test"), SpanSample: 2})
	h := s.Handler()

	const good = traceBuffer + 6
	for i := 0; i < good; i++ {
		if w := postJSON(t, h, "/v1/match", samplePair()); w.Code != http.StatusOK {
			t.Fatalf("match %d: %d", i, w.Code)
		}
	}
	// One malformed request after the budget is long spent.
	req := httptest.NewRequest(http.MethodPost, "/v1/match", strings.NewReader("{"))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("malformed request: %d", w.Code)
	}

	var traces TracesResponse
	getJSON(t, h, "/debug/traces", &traces)
	c := traces.Capture
	if c.Recorded != good+1 {
		t.Fatalf("recorded %d traces, want %d", c.Recorded, good+1)
	}
	if len(c.Recent) != traceBuffer {
		t.Fatalf("recent ring holds %d, want traceBuffer=%d", len(c.Recent), traceBuffer)
	}
	// The newest entry is the late error — proof the ring rolls.
	last := c.Recent[len(c.Recent)-1]
	if !last.Error || last.Status != http.StatusBadRequest {
		t.Fatalf("newest recent trace should be the 400: %+v", last)
	}
	if len(c.Errors) != 1 || c.Errors[0].Status != http.StatusBadRequest {
		t.Fatalf("errors ring: %+v", c.Errors)
	}
	// Requests beyond the span budget still carry detached span trees.
	if last.Span == nil {
		t.Fatal("request beyond SpanSample budget lost its span tree")
	}
	if len(c.Slowest) == 0 {
		t.Fatal("slowest class empty")
	}
}

var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (NaN|[-+0-9.eE]+)$`)

// TestMetricsPromExposition checks GET /metrics?format=prom renders
// parseable Prometheus 0.0.4 text with the serve, runtime and stream
// families present.
func TestMetricsPromExposition(t *testing.T) {
	s, _ := streamServer(t)
	h := s.Handler()
	if w := postJSON(t, h, "/v1/match", samplePair()); w.Code != http.StatusOK {
		t.Fatalf("match: %d", w.Code)
	}

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics?format=prom", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("metrics: %d: %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	body := w.Body.String()
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("unparseable exposition line %q", line)
		}
	}
	for _, want := range []string{
		"transer_serve_requests_total ",
		"transer_runtime_goroutines ",
		"transer_stream_wal_seq ",
		"transer_stream_records_since_snapshot ",
		`transer_serve_request_seconds_bucket{le="+Inf"}`,
		"transer_serve_request_seconds_count ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The JSON form stays the default.
	var metrics MetricsResponse
	getJSON(t, h, "/metrics", &metrics)
	if metrics.Metrics.Counters["serve.requests_total"] < 1 {
		t.Fatalf("JSON metrics: %+v", metrics.Metrics.Counters)
	}
}

// TestHealthRuntimeAndStream checks /healthz carries the process
// runtime sample and, on a streaming server, the live store stats.
func TestHealthRuntimeAndStream(t *testing.T) {
	s, _ := streamServer(t)
	h := s.Handler()
	rec := map[string]string{"name": "willow tam", "desc": "quiet river harbour", "year": "1987"}
	if w := postJSON(t, h, "/v1/ingest", streamPayload(rec)); w.Code != http.StatusOK {
		t.Fatalf("ingest: %d", w.Code)
	}

	var health HealthResponse
	getJSON(t, h, "/healthz", &health)
	if health.Runtime == nil || health.Runtime.Goroutines < 1 || health.Runtime.HeapAllocBytes == 0 {
		t.Fatalf("runtime sample: %+v", health.Runtime)
	}
	if health.Stream == nil || health.Stream.Records != 1 {
		t.Fatalf("stream stats: %+v", health.Stream)
	}

	// A non-streaming server omits the stream block but keeps runtime.
	s2 := newTestServer(t, Config{})
	var health2 HealthResponse
	getJSON(t, s2.Handler(), "/healthz", &health2)
	if health2.Stream != nil {
		t.Fatalf("non-streaming server reported stream stats: %+v", health2.Stream)
	}
	if health2.Runtime == nil {
		t.Fatal("non-streaming server lost the runtime sample")
	}
}

// TestQueryExplainProvenance checks POST /v1/query?explain=1 attaches
// the model fingerprint and one comparison vector per returned match.
func TestQueryExplainProvenance(t *testing.T) {
	s := newTestServer(t, Config{Tracer: obs.New("serve-test")})
	h := s.Handler()
	rec := RecordPayload{"name": "willow tam", "desc": "quiet river harbour", "year": "1987"}
	w := postJSON(t, h, "/v1/query?explain=1", QueryRequest{A: []RecordPayload{rec, rec}})
	if w.Code != http.StatusOK {
		t.Fatalf("query: %d: %s", w.Code, w.Body.String())
	}
	var resp QueryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count == 0 {
		t.Fatalf("identical records should self-join: %+v", resp)
	}
	p := resp.Provenance
	if p == nil {
		t.Fatal("?explain=1 query returned no provenance")
	}
	if p.ModelFingerprint != s.reg.Matcher().Fingerprint() {
		t.Fatalf("fingerprint %s, want %s", p.ModelFingerprint, s.reg.Matcher().Fingerprint())
	}
	if len(p.Vectors) != len(resp.Matches) {
		t.Fatalf("%d vectors for %d matches", len(p.Vectors), len(resp.Matches))
	}
	for i, v := range p.Vectors {
		if len(v) != len(p.Features) {
			t.Fatalf("vector %d: %v not aligned with features %v", i, v, p.Features)
		}
	}
	if p.TraceID == "" {
		t.Fatal("query provenance missing trace ID")
	}
}

// TestResponsesIdenticalWithLoggingOnOff is the determinism contract
// at the HTTP level: with a pinned client traceparent, every response
// body is byte-identical whether structured logging and tracing are
// enabled or not. Observability observes; it never participates.
func TestResponsesIdenticalWithLoggingOnOff(t *testing.T) {
	build := func(logged bool) http.Handler {
		m := trainedMatcher(t)
		cfg := stream.FromMatcher(m)
		scfg := Config{Registry: StaticRegistry(m)}
		if logged {
			var sink bytes.Buffer
			tr := obs.New("serve-test")
			logger := obs.NewLogger(&sink, slog.LevelDebug, tr.Metrics())
			cfg.Metrics = tr.Metrics()
			cfg.Logger = logger
			scfg.Tracer = tr
			scfg.Logger = logger
		}
		st, err := stream.NewStore(cfg)
		if err != nil {
			t.Fatal(err)
		}
		scfg.Stream = st
		return newTestServer(t, scfg).Handler()
	}

	on, off := build(true), build(false)
	rec := map[string]string{"name": "willow tam", "desc": "quiet river harbour", "year": "1987"}
	client := obs.NewTraceContext()
	do := func(h http.Handler, method, path string, payload any) string {
		b, err := json.Marshal(payload)
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(method, path, bytes.NewReader(b))
		req.Header.Set("Traceparent", client.Traceparent())
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("%s %s: %d: %s", method, path, w.Code, w.Body.String())
		}
		return w.Body.String()
	}

	steps := []struct {
		method, path string
		payload      any
	}{
		{http.MethodPost, "/v1/ingest", streamPayload(rec, rec)},
		{http.MethodPost, "/v1/resolve?explain=1", map[string]any{"attrs": rec}},
		{http.MethodPost, "/v1/match", samplePair()},
		{http.MethodPost, "/v1/query?explain=1", QueryRequest{A: []RecordPayload{rec, rec}}},
	}
	for _, step := range steps {
		a := do(on, step.method, step.path, step.payload)
		b := do(off, step.method, step.path, step.payload)
		if a != b {
			t.Fatalf("%s %s differs with logging on vs off:\non:  %s\noff: %s",
				step.method, step.path, a, b)
		}
	}
}
