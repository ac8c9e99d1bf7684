// Package serve implements the online matching service: a stdlib-only
// net/http JSON API that loads a transer.model/v1 artifact
// (internal/model) and scores record pairs with exactly the decisions
// the training run produced.
//
// Endpoints:
//
//	POST /v1/match         score one record pair
//	POST /v1/match/batch   score N pairs (index-addressed, deterministic)
//	POST /v1/query         planned similarity join of uploaded record sets
//	POST /v1/ingest        admit records into the live entity store (with Config.Stream)
//	POST /v1/resolve       read-only probe against the live entity store (with Config.Stream)
//	GET  /v1/models        describe the loaded model (+ catalog with Config.Catalog)
//	POST /v1/models/select rank catalogued models for a target domain (with Config.Catalog)
//	POST /v1/models/reload hot-swap the model from its artifact file
//	GET  /healthz          liveness probe
//	GET  /metrics          JSON snapshot of the server's obs registry
//	GET  /metrics?format=prom  Prometheus text exposition of the same registry
//	GET  /debug/traces     tail-based trace capture (recent/errors/slowest)
//
// Operational behaviour: admission control sheds load beyond a bounded
// in-flight + queue capacity with 429 and a Retry-After hint;
// every scoring request runs under a per-request context deadline;
// batch scoring runs on the query engine's block score operator
// (query.ScoreMatrix) so responses are byte-identical for every worker
// count; request spans and request/latency/in-flight metrics flow
// through internal/obs. Graceful drain is the caller's http.Server
// Shutdown — handlers hold no state beyond the request.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"transer/internal/obs"
	"transer/internal/query"
	"transer/internal/repo"
	"transer/internal/stream"
)

// Config parameterises a Server. The zero value of every field gets a
// sensible default from New.
type Config struct {
	// Registry supplies the model; required.
	Registry *ModelRegistry
	// MaxInFlight bounds concurrently executing scoring requests
	// (default: GOMAXPROCS).
	MaxInFlight int
	// MaxQueue bounds scoring requests waiting for a slot beyond
	// MaxInFlight; anything above is shed with 429 (default 64;
	// negative = no queue, shed as soon as every slot is busy).
	MaxQueue int
	// Timeout is the per-request scoring deadline (default 10s).
	Timeout time.Duration
	// Workers bounds the scoring worker pool for batch requests
	// (0 = one per CPU). Responses are identical for every value.
	Workers int
	// MaxBatchPairs caps the pairs of one batch request (default 10000).
	MaxBatchPairs int
	// SpanSample caps how many requests record spans under the tracer;
	// a long-running server must not grow its span tree without bound
	// (default 256; metrics are always recorded).
	SpanSample int64
	// Tracer, when non-nil, receives request spans and owns the metrics
	// registry surfaced by /metrics. With a nil tracer the server keeps
	// a private registry, so /metrics works either way.
	Tracer *obs.Tracer
	// Logger receives one structured JSONL event per scored request,
	// trace-correlated via the request's traceparent (see obs.NewLogger).
	// Nil discards events at no cost.
	Logger *slog.Logger
	// Stream, when non-nil, enables the streaming entity-store
	// endpoints POST /v1/ingest and POST /v1/resolve against this
	// store (see internal/stream). Build the store with the same
	// metrics registry as the server so its stream.* counters appear
	// in /metrics.
	Stream *stream.Store
	// Catalog, when non-nil, enables the model-repository surfaces:
	// GET /v1/models appends the catalog after the active model,
	// POST /v1/models/select ranks catalogued models against a target
	// domain, and the scoring endpoints accept a model=<selector>
	// query parameter (fingerprint, unique prefix, model name, or a
	// weighted "fp@w,fp@w" ensemble). Without a selector the active
	// registry model serves exactly as before.
	Catalog *repo.Catalog
}

const (
	// maxBodyBytes caps request body size.
	maxBodyBytes = 8 << 20
	// traceBuffer caps each retention class of the tail-based trace
	// capture behind GET /debug/traces: the N most recent requests, the
	// N most recent errors, and the N slowest requests.
	traceBuffer = 64
)

func (c Config) withDefaults() Config {
	if c.MaxInFlight == 0 {
		c.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 64
	} else if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.Timeout == 0 {
		c.Timeout = 10 * time.Second
	}
	if c.MaxBatchPairs == 0 {
		c.MaxBatchPairs = 10000
	}
	if c.SpanSample == 0 {
		c.SpanSample = 256
	}
	if c.Logger == nil {
		c.Logger = obs.DiscardLogger()
	}
	return c
}

// Server is the matching service. Construct with New; serve the value
// of Handler with any http.Server.
type Server struct {
	cfg     Config
	reg     *ModelRegistry
	gate    *gate
	metrics *obs.Registry
	tracer  *obs.Tracer
	logger  *slog.Logger
	capture *obs.TraceCapture
	rt      *obs.RuntimeSampler
	started time.Time

	spansTaken atomic.Int64

	// Resolved instruments (hot path touches only atomics).
	mRequests  *obs.Counter
	mShed      *obs.Counter
	mErrors    *obs.Counter
	mWriteErrs *obs.Counter
	mInFlight  *obs.Gauge
	mLatency   *obs.Histogram
	mBatchSize *obs.Histogram
}

// New validates the configuration and builds a Server.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Registry == nil || cfg.Registry.Matcher() == nil {
		return nil, errors.New("serve: Config.Registry with a loaded model is required")
	}
	metrics := cfg.Tracer.Metrics()
	if metrics == nil {
		metrics = obs.NewRegistry()
	}
	s := &Server{
		cfg:     cfg,
		reg:     cfg.Registry,
		gate:    newGate(cfg.MaxInFlight, cfg.MaxQueue),
		metrics: metrics,
		tracer:  cfg.Tracer,
		logger:  cfg.Logger,
		capture: obs.NewTraceCapture(traceBuffer),
		rt:      obs.NewRuntimeSampler(metrics),
		started: time.Now(),

		mRequests:  metrics.Counter("serve.requests_total"),
		mShed:      metrics.Counter("serve.shed_total"),
		mErrors:    metrics.Counter("serve.errors_total"),
		mWriteErrs: metrics.Counter("serve.write_errors_total"),
		mInFlight:  metrics.Gauge("serve.in_flight"),
		mLatency:   metrics.Histogram("serve.request_seconds", obs.SecondsBuckets()),
		mBatchSize: metrics.Histogram("serve.batch_pairs", obs.ExpBuckets(1, 4, 10)),
	}
	return s, nil
}

// Handler returns the service's routing table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/traces", s.handleDebugTraces)
	mux.HandleFunc("GET /v1/models", s.handleModels)
	mux.HandleFunc("POST /v1/models/reload", s.handleReload)
	mux.HandleFunc("POST /v1/match", s.scored("match", s.handleMatch))
	mux.HandleFunc("POST /v1/match/batch", s.scored("batch", s.handleBatch))
	mux.HandleFunc("POST /v1/query", s.scored("query", s.handleQuery))
	if s.cfg.Catalog != nil {
		mux.HandleFunc("POST /v1/models/select", s.scored("select", s.handleSelect))
	}
	if s.cfg.Stream != nil {
		mux.HandleFunc("POST /v1/ingest", s.scored("ingest", s.handleIngest))
		mux.HandleFunc("POST /v1/resolve", s.scored("resolve", s.handleResolve))
	}
	return mux
}

// Metrics exposes the server's registry (for embedding binaries that
// publish their own instruments alongside).
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// requestSpan starts a span for this request: attached under the
// tracer root within the SpanSample budget (so a long-running server's
// shutdown run report stays bounded), detached beyond it. Detached
// spans still flow into the tail-based trace capture and are released
// when they age out of its rings, so every request is traced without
// unbounded growth.
func (s *Server) requestSpan(route string, tc obs.TraceContext) *obs.Span {
	if s.tracer == nil {
		return nil
	}
	var sp *obs.Span
	if s.spansTaken.Add(1) <= s.cfg.SpanSample {
		sp = s.tracer.Root().Child("request:" + route)
	} else {
		sp = obs.NewDetachedSpan("request:" + route)
	}
	sp.SetStr("trace_id", tc.TraceID.String())
	sp.SetStr("span_id", tc.SpanID.String())
	return sp
}

// traceFor continues the client's trace when the request carries a
// valid W3C traceparent header (same trace ID, fresh span ID), or
// starts a new trace otherwise.
func (s *Server) traceFor(r *http.Request) obs.TraceContext {
	if h := r.Header.Get("Traceparent"); h != "" {
		if tc, err := obs.ParseTraceparent(h); err == nil {
			return tc.ChildOf()
		}
	}
	return obs.NewTraceContext()
}

// statusWriter records the response status for request logging and
// trace capture.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// finishRequest records the completed request into the tail-based
// trace capture and emits the structured request event. Runs for shed
// requests too — tail capture exists precisely so saturation incidents
// stay observable.
func (s *Server) finishRequest(ctx context.Context, route string, tc obs.TraceContext, sp *obs.Span, start time.Time, status int) {
	dur := time.Since(start)
	isErr := status >= 400
	s.capture.Record(obs.CapturedTrace{
		TraceID: tc.TraceID.String(),
		Route:   route,
		Status:  status,
		Start:   start,
		DurMS:   float64(dur) / float64(time.Millisecond),
		Error:   isErr,
		Span:    obs.SpanTree(sp),
	})
	lv := slog.LevelInfo
	switch {
	case status >= 500:
		lv = slog.LevelError
	case isErr:
		lv = slog.LevelWarn
	}
	s.logger.LogAttrs(ctx, lv, "serve.request",
		slog.String("route", route),
		slog.Int("status", status),
		slog.Float64("dur_ms", float64(dur)/float64(time.Millisecond)))
}

// scored wraps a scoring handler with admission control, the
// per-request deadline, trace propagation, and request accounting.
// Metadata endpoints (health, metrics, models, debug) stay outside the
// gate so the service can be observed even while saturated.
func (s *Server) scored(route string, h http.HandlerFunc) http.HandlerFunc {
	routeRequests := s.metrics.Counter("serve." + route + ".requests_total")
	return func(w http.ResponseWriter, r *http.Request) {
		s.mRequests.Add(1)
		routeRequests.Add(1)

		tc := s.traceFor(r)
		w.Header().Set("Traceparent", tc.Traceparent())
		start := time.Now()
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
		defer cancel()
		ctx = obs.ContextWithTrace(ctx, tc)

		if err := s.gate.acquire(ctx); err != nil {
			var status int
			if errors.Is(err, errOverloaded) {
				s.mShed.Add(1)
				w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.Timeout))
				status = http.StatusTooManyRequests
				s.writeError(w, status, "server is at capacity, retry later")
			} else {
				// Deadline or client disconnect while queued.
				status = http.StatusServiceUnavailable
				s.writeError(w, status, "timed out waiting for capacity")
			}
			s.finishRequest(ctx, route, tc, nil, start, status)
			return
		}
		s.mInFlight.Set(float64(s.gate.inFlight()))
		sp := s.requestSpan(route, tc)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		r = r.WithContext(obs.ContextWithSpan(ctx, sp))
		defer func() {
			s.gate.release()
			s.mInFlight.Set(float64(s.gate.inFlight()))
			s.mLatency.ObserveEx(time.Since(start).Seconds(), tc.TraceID.String())
			sp.End()
			s.finishRequest(ctx, route, tc, sp, start, sw.status)
		}()
		r.Body = http.MaxBytesReader(sw, r.Body, maxBodyBytes)
		h(sw, r)
	}
}

// retryAfterSeconds hints clients to back off for about half the
// request deadline (at least one second).
func retryAfterSeconds(timeout time.Duration) string {
	sec := int(timeout.Seconds() / 2)
	if sec < 1 {
		sec = 1
	}
	return strconv.Itoa(sec)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	rt := s.rt.Sample()
	resp := HealthResponse{
		Status:  "ok",
		Model:   s.reg.Matcher().Artifact.Name,
		Runtime: &rt,
	}
	if s.cfg.Stream != nil {
		st := s.cfg.Stream.Stats()
		resp.Stream = &st
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// MetricsResponse is the body of GET /metrics.
type MetricsResponse struct {
	Schema        string       `json:"schema"`
	Model         string       `json:"model"`
	UptimeSeconds float64      `json:"uptime_seconds"`
	Metrics       obs.Snapshot `json:"metrics"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Refresh on-demand gauges so a scrape always sees current runtime
	// and streaming-lag state (no background sampler goroutine).
	s.rt.Sample()
	s.cfg.Stream.PublishLag()
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		if err := obs.WritePrometheus(w, s.metrics.Snapshot()); err != nil {
			s.mWriteErrs.Add(1)
		}
		return
	}
	s.writeJSON(w, http.StatusOK, MetricsResponse{
		Schema:        MetricsSchemaVersion,
		Model:         s.reg.Matcher().Artifact.Name,
		UptimeSeconds: time.Since(s.started).Seconds(),
		Metrics:       s.metrics.Snapshot(),
	})
}

// TracesResponse is the body of GET /debug/traces: the tail-based
// capture of recent, error and slowest requests.
type TracesResponse struct {
	Schema  string              `json:"schema"`
	Capture obs.CaptureSnapshot `json:"capture"`
}

func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, TracesResponse{
		Schema:  TracesSchemaVersion,
		Capture: s.capture.Snapshot(),
	})
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	// The active model comes first (the pre-repository response shape,
	// so single-model clients keep reading Models[0]); the catalog, if
	// configured, is appended with source "catalog".
	active := s.reg.Info()
	active.Source = "active"
	s.writeJSON(w, http.StatusOK, ModelsResponse{Models: s.catalogModels([]ModelInfo{active})})
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if err := s.reg.Reload(); err != nil {
		// The previous model keeps serving; report why the swap failed.
		s.writeError(w, http.StatusInternalServerError, fmt.Sprintf("reload failed, previous model still serving: %v", err))
		return
	}
	s.metrics.Counter("serve.reloads_total").Add(1)
	active := s.reg.Info()
	active.Source = "active"
	s.writeJSON(w, http.StatusOK, ModelsResponse{Models: s.catalogModels([]ModelInfo{active})})
}

func (s *Server) handleMatch(w http.ResponseWriter, r *http.Request) {
	var req MatchRequest
	if !s.decode(w, r, &req) {
		return
	}
	e, err := s.ensembleFor(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	ra, err := e.RecordFromValues(req.A)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "record a: "+err.Error())
		return
	}
	rb, err := e.RecordFromValues(req.B)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "record b: "+err.Error())
		return
	}
	x := e.Vector(ra, rb)
	p := e.Score([][]float64{x}, 1)[0]
	s.writeJSON(w, http.StatusOK, MatchResponse{
		Model:       e.Label(),
		Probability: p,
		Match:       e.Decide(p),
		Vector:      x,
	})
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Pairs) == 0 {
		s.writeError(w, http.StatusBadRequest, "batch request has no pairs")
		return
	}
	if len(req.Pairs) > s.cfg.MaxBatchPairs {
		s.writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch of %d pairs exceeds the limit of %d", len(req.Pairs), s.cfg.MaxBatchPairs))
		return
	}
	s.mBatchSize.Observe(float64(len(req.Pairs)))

	e, err := s.ensembleFor(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	x := make([][]float64, len(req.Pairs))
	for i, pair := range req.Pairs {
		ra, err := e.RecordFromValues(pair.A)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, fmt.Sprintf("pair %d: %v", i, err))
			return
		}
		rb, err := e.RecordFromValues(pair.B)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, fmt.Sprintf("pair %d: %v", i, err))
			return
		}
		x[i] = e.Vector(ra, rb)
	}
	// Fixed-size row blocks make the response bitwise identical for
	// every worker count; a canceled request discards partial scores.
	proba, err := query.ScoreMatrix(r.Context(), e, x, s.cfg.Workers)
	if err != nil {
		s.writeError(w, http.StatusServiceUnavailable, fmt.Sprintf("batch scoring aborted: %v", err))
		return
	}
	resp := BatchResponse{Model: e.Label(), Count: len(proba), Results: make([]BatchResult, len(proba))}
	for i, p := range proba {
		resp.Results[i] = BatchResult{Index: i, Probability: p, Match: e.Decide(p)}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// decode parses a JSON request body strictly: unknown fields are an
// error so client typos surface as 400s instead of silently scoring
// half-empty records.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid request body: %v", err))
		return false
	}
	return true
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(body); err != nil {
		// The response is already committed; a failed write means the
		// client went away. Count it — there is nothing else to do.
		s.mWriteErrs.Add(1)
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, msg string) {
	if status >= 500 {
		s.mErrors.Add(1)
	}
	s.writeJSON(w, status, ErrorResponse{Error: msg})
}
