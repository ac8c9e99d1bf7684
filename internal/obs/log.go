package obs

// Structured JSONL event logging on log/slog. One event is one
// self-contained JSON line:
//
//	{"ts":"…Z","level":"info","event":"serve.request","trace_id":"…","span_id":"…",<fields>}
//
// ts is UTC, level is lower-case, trace_id/span_id come from the trace
// carried by the context (when present), then the caller's typed
// fields in order. slog's JSON handler writes each line with a single
// Write under its mutex, so concurrent events never interleave.
//
// A disabled logger (DiscardLogger) or a level-filtered call is a
// zero-allocation no-op as long as call sites use LogAttrs with typed
// slog.Attr values; BenchmarkLoggerOverhead guards that contract the
// way BenchmarkTracerOverhead guards the tracer's.
//
// Logging observes; it never participates. Every deterministic output
// (goldens, streamdiff partitions, serve decisions) is byte-identical
// with logging enabled or disabled.

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"strconv"
	"strings"
)

// NewLogger returns a logger writing events at or above level to w as
// JSONL. A non-nil reg receives log.events_total and log.bytes_total.
func NewLogger(w io.Writer, level slog.Level, reg *Registry) *slog.Logger {
	if reg != nil {
		w = countingWriter{w: w, events: reg.Counter("log.events_total"), bytes: reg.Counter("log.bytes_total")}
	}
	h := slog.NewJSONHandler(w, &slog.HandlerOptions{Level: level, ReplaceAttr: lineSchema})
	return slog.New(traceHandler{h})
}

// OpenLogger resolves the -log-out and -log-level flags every logging
// command shares. The level is validated even when logging is off. An
// empty path yields a discarding logger; "-" or "stderr" log to
// standard error; anything else creates/truncates that file. The
// returned close function flushes the output under a "log:flush" span
// of tr, so run reports account for log shutdown cost.
func OpenLogger(path, level string, tr *Tracer) (*slog.Logger, func() error, error) {
	lv, err := parseLevel(level)
	if err != nil {
		return nil, nil, err
	}
	if path == "" {
		return DiscardLogger(), func() error { return nil }, nil
	}
	var w io.Writer = os.Stderr
	closeOut := func() error { return nil }
	if path != "-" && path != "stderr" {
		f, err := os.Create(path)
		if err != nil {
			return nil, nil, err
		}
		w, closeOut = f, f.Close
	}
	closeLog := func() error {
		sp := tr.Root().Child("log:flush")
		err := closeOut()
		sp.End()
		if err != nil {
			return fmt.Errorf("log close: %w", err)
		}
		return nil
	}
	return NewLogger(w, lv, tr.Metrics()), closeLog, nil
}

// DiscardLogger returns a logger that is never enabled, so its calls
// return before building a record.
func DiscardLogger() *slog.Logger { return discardLogger }

var discardLogger = slog.New(discardHandler{})

// discardHandler drops every event. (slog.DiscardHandler arrives only
// in Go 1.24; go.mod targets Go 1.22.)
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (h discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h discardHandler) WithGroup(string) slog.Handler           { return h }

// parseLevel parses a level name (case-insensitive).
func parseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return slog.LevelInfo, fmt.Errorf("obs: unknown log level %q (want debug|info|warn|error)", s)
}

// lineSchema renames slog's built-in keys to the event schema (time ->
// ts in UTC, lower-case level, msg -> event) and renders non-finite
// floats, which JSON cannot represent, as strings.
func lineSchema(_ []string, a slog.Attr) slog.Attr {
	switch a.Value.Kind() {
	case slog.KindTime:
		if a.Key == slog.TimeKey {
			return slog.Time("ts", a.Value.Time().UTC())
		}
	case slog.KindAny:
		if lv, ok := a.Value.Any().(slog.Level); ok && a.Key == slog.LevelKey {
			return slog.String(slog.LevelKey, strings.ToLower(lv.String()))
		}
	case slog.KindString:
		if a.Key == slog.MessageKey {
			a.Key = "event"
		}
	case slog.KindFloat64:
		if f := a.Value.Float64(); math.IsNaN(f) || math.IsInf(f, 0) {
			return slog.String(a.Key, strconv.FormatFloat(f, 'g', -1, 64))
		}
	}
	return a
}

// traceHandler puts the context's trace_id and span_id ahead of the
// record's own fields.
type traceHandler struct{ slog.Handler }

func (h traceHandler) Handle(ctx context.Context, r slog.Record) error {
	if tc, ok := TraceFromContext(ctx); ok && tc.Valid() {
		traced := slog.NewRecord(r.Time, r.Level, r.Message, r.PC)
		traced.AddAttrs(slog.String("trace_id", tc.TraceID.String()), slog.String("span_id", tc.SpanID.String()))
		r.Attrs(func(a slog.Attr) bool {
			traced.AddAttrs(a)
			return true
		})
		r = traced
	}
	return h.Handler.Handle(ctx, r)
}

func (h traceHandler) WithAttrs(as []slog.Attr) slog.Handler {
	return traceHandler{h.Handler.WithAttrs(as)}
}

func (h traceHandler) WithGroup(name string) slog.Handler {
	return traceHandler{h.Handler.WithGroup(name)}
}

// countingWriter mirrors the logger's output into the log.* counters.
// The JSON handler writes one line per Write.
type countingWriter struct {
	w             io.Writer
	events, bytes *Counter
}

func (c countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	if err == nil {
		c.events.Add(1)
		c.bytes.Add(int64(n))
	}
	return n, err
}
