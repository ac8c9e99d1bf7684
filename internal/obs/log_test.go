package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"math"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// logLines unmarshals each JSONL line, failing on malformed output.
func logLines(t *testing.T, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		out = append(out, m)
	}
	return out
}

func TestLoggerEmitsStructuredLines(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(&buf, slog.LevelDebug, nil)
	tc := NewTraceContext()
	ctx := ContextWithTrace(context.Background(), tc)

	lg.LogAttrs(ctx, slog.LevelInfo, "serve.request",
		slog.String("route", "resolve"),
		slog.Int("status", 200),
		slog.Float64("dur_ms", 1.25),
		slog.Bool("matched", true))
	lg.LogAttrs(context.Background(), slog.LevelDebug, "plain")

	lines := logLines(t, &buf)
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	got := lines[0]
	if got["level"] != "info" || got["event"] != "serve.request" || lines[1]["level"] != "debug" {
		t.Fatalf("header fields: %v", lines)
	}
	if got["trace_id"] != tc.TraceID.String() || got["span_id"] != tc.SpanID.String() {
		t.Fatalf("trace correlation: %v, want trace %s span %s", got, tc.TraceID, tc.SpanID)
	}
	if got["route"] != "resolve" || got["status"] != float64(200) ||
		got["dur_ms"] != 1.25 || got["matched"] != true {
		t.Fatalf("typed fields: %v", got)
	}
	ts, ok := got["ts"].(string)
	if !ok || !strings.HasSuffix(ts, "Z") {
		t.Fatalf("timestamp not UTC: %v", got)
	}
	if _, err := time.Parse(time.RFC3339Nano, ts); err != nil {
		t.Fatalf("timestamp %q: %v", ts, err)
	}
	if _, hasTrace := lines[1]["trace_id"]; hasTrace {
		t.Fatalf("traceless context produced a trace id: %v", lines[1])
	}
	// The schema's key order: header, trace correlation, then fields.
	line := strings.SplitN(buf.String(), "\n", 2)[0]
	order := []string{`{"ts":`, `"level":`, `"event":`, `"trace_id":`, `"span_id":`, `"route":`, `"status":`, `"dur_ms":`, `"matched":`}
	at := 0
	for _, key := range order {
		i := strings.Index(line[at:], key)
		if i < 0 {
			t.Fatalf("key %s missing or out of order in %s", key, line)
		}
		at += i + len(key)
	}
}

func TestLoggerLevelFilter(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(&buf, slog.LevelWarn, nil)
	ctx := context.Background()
	for _, lv := range []slog.Level{slog.LevelDebug, slog.LevelInfo, slog.LevelWarn, slog.LevelError} {
		lg.LogAttrs(ctx, lv, strings.ToLower(lv.String()))
	}
	lines := logLines(t, &buf)
	if len(lines) != 2 || lines[0]["event"] != "warn" || lines[1]["event"] != "error" ||
		lines[0]["level"] != "warn" || lines[1]["level"] != "error" {
		t.Fatalf("level filter: %v", lines)
	}
	if lg.Enabled(ctx, slog.LevelInfo) || !lg.Enabled(ctx, slog.LevelError) {
		t.Fatal("Enabled disagrees with the filter")
	}
}

func TestLoggerEscapesHostileStrings(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(&buf, slog.LevelDebug, nil)
	hostile := "quote\" backslash\\ newline\n tab\t ctrl\x01 unicodeé bad\xff"
	lg.LogAttrs(context.Background(), slog.LevelInfo, hostile, slog.String("k\"ey", hostile))
	lines := logLines(t, &buf)
	got := lines[0]["event"].(string)
	// Invalid UTF-8 is replaced, everything else round-trips.
	want := strings.Replace(hostile, "\xff", "�", 1)
	if got != want {
		t.Fatalf("event round trip: %q, want %q", got, want)
	}
	if lines[0]["k\"ey"] != want {
		t.Fatalf("field round trip: %v", lines[0])
	}
}

func TestLoggerNonFiniteFloats(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(&buf, slog.LevelDebug, nil)
	lg.LogAttrs(context.Background(), slog.LevelInfo, "f",
		slog.Float64("nan", math.NaN()), slog.Float64("inf", math.Inf(1)),
		slog.Float64("ninf", math.Inf(-1)), slog.Float64("ok", 0.5))
	lines := logLines(t, &buf) // would fail on invalid JSON
	if lines[0]["nan"] != "NaN" || lines[0]["inf"] != "+Inf" || lines[0]["ninf"] != "-Inf" || lines[0]["ok"] != 0.5 {
		t.Fatalf("non-finite rendering: %v", lines[0])
	}
}

func TestLoggerConcurrentLinesNeverInterleave(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(&buf, slog.LevelDebug, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				lg.LogAttrs(context.Background(), slog.LevelInfo, "evt", slog.Int("g", g), slog.Int("i", i))
			}
		}(g)
	}
	wg.Wait()
	if lines := logLines(t, &buf); len(lines) != 400 {
		t.Fatalf("got %d lines, want 400", len(lines))
	}
}

func TestLoggerInstrument(t *testing.T) {
	var buf bytes.Buffer
	reg := NewRegistry()
	lg := NewLogger(&buf, slog.LevelInfo, reg)
	lg.LogAttrs(context.Background(), slog.LevelInfo, "a")
	lg.LogAttrs(context.Background(), slog.LevelDebug, "filtered")
	snap := reg.Snapshot()
	if snap.Counters["log.events_total"] != 1 {
		t.Fatalf("events_total = %d", snap.Counters["log.events_total"])
	}
	if snap.Counters["log.bytes_total"] != int64(buf.Len()) {
		t.Fatalf("bytes_total = %d, wrote %d", snap.Counters["log.bytes_total"], buf.Len())
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "INFO": slog.LevelInfo, "Warn": slog.LevelWarn,
		"warning": slog.LevelWarn, "error": slog.LevelError,
	} {
		got, err := parseLevel(in)
		if err != nil || got != want {
			t.Errorf("parseLevel(%q) = %v, %v", in, got, err)
		}
	}
	for _, bad := range []string{"loud", "", "info+2"} {
		if _, err := parseLevel(bad); err == nil {
			t.Errorf("parseLevel accepted %q", bad)
		}
	}
}

// TestOpenLogger covers the shared flag handling: the level is checked
// with logging off too, a file output counts its lines, and closing
// records the log:flush span.
func TestOpenLogger(t *testing.T) {
	if _, _, err := OpenLogger("", "bogus", New("t")); err == nil {
		t.Fatal("disabled logging accepted an unknown level")
	}
	off, closeOff, err := OpenLogger("", "debug", New("t"))
	if err != nil || off.Enabled(context.Background(), slog.LevelError) || closeOff() != nil {
		t.Fatalf("disabled logger: enabled=%v err=%v", off.Enabled(context.Background(), slog.LevelError), err)
	}

	tr := New("t")
	lg, closeLog, err := OpenLogger(filepath.Join(t.TempDir(), "events.jsonl"), "warning", tr)
	if err != nil {
		t.Fatal(err)
	}
	lg.LogAttrs(context.Background(), slog.LevelInfo, "filtered")
	lg.LogAttrs(context.Background(), slog.LevelWarn, "kept")
	if err := closeLog(); err != nil {
		t.Fatal(err)
	}
	if n := tr.Metrics().Snapshot().Counters["log.events_total"]; n != 1 {
		t.Fatalf("events_total = %d, want 1", n)
	}
	if tr.Root().Find("log:flush") == nil {
		t.Fatal("close recorded no log:flush span")
	}
}

// TestNilLoggerAllocates pins the no-allocation contract outside the
// benchmark: the discarding logger a nil serve or stream Config.Logger
// resolves to, and a level-filtered call on an enabled logger, must
// not allocate, including the variadic attribute slice at the call
// site.
func TestNilLoggerAllocates(t *testing.T) {
	ctx := ContextWithTrace(context.Background(), NewTraceContext())
	off := DiscardLogger()
	if allocs := testing.AllocsPerRun(200, func() {
		off.LogAttrs(ctx, slog.LevelInfo, "event", slog.String("k", "v"), slog.Int("n", 1), slog.Float64("f", 0.5))
		off.LogAttrs(ctx, slog.LevelError, "err", slog.Bool("b", true))
	}); allocs != 0 {
		t.Fatalf("discard logger allocates %.1f/op, want 0", allocs)
	}
	filtered := NewLogger(&bytes.Buffer{}, slog.LevelError, NewRegistry())
	if allocs := testing.AllocsPerRun(200, func() {
		filtered.LogAttrs(ctx, slog.LevelDebug, "event", slog.String("k", "v"), slog.Int("n", 1))
	}); allocs != 0 {
		t.Fatalf("filtered level allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkLoggerOverhead is the CI acceptance gate mirroring
// BenchmarkTracerOverhead: the "disabled" case must report 0 allocs/op
// and re-checks the contract with AllocsPerRun.
func BenchmarkLoggerOverhead(b *testing.B) {
	ctx := ContextWithTrace(context.Background(), NewTraceContext())
	run := func(b *testing.B, lg *slog.Logger) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lg.LogAttrs(ctx, slog.LevelInfo, "serve.request",
				slog.String("route", "resolve"),
				slog.Int("status", 200),
				slog.Float64("dur_ms", 0.42))
		}
	}
	b.Run("disabled", func(b *testing.B) {
		lg := DiscardLogger()
		run(b, lg)
		if b.N > 100 {
			if allocs := testing.AllocsPerRun(100, func() {
				lg.LogAttrs(ctx, slog.LevelInfo, "serve.request", slog.String("route", "resolve"), slog.Int("status", 200))
			}); allocs != 0 {
				b.Fatalf("disabled-logger path allocates %.1f/op, want 0", allocs)
			}
		}
	})
	b.Run("enabled", func(b *testing.B) {
		var sink bytes.Buffer
		run(b, NewLogger(&sink, slog.LevelDebug, nil))
	})
}
