package stream

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"path/filepath"
	"strings"
	"testing"

	"transer/internal/blocking"
	"transer/internal/dataset"
	"transer/internal/obs"
)

// parseEvents decodes the JSONL event buffer, keeping only events with
// the given name.
func parseEvents(t *testing.T, buf *bytes.Buffer, event string) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("log line not JSON: %q: %v", line, err)
		}
		if ev["event"] == event {
			out = append(out, ev)
		}
	}
	return out
}

// TestIngestDecisionEventsLogged checks every live ingest emits one
// structured decision event keyed by WAL sequence and the request's
// trace ID, with the decision fields the provenance contract names.
func TestIngestDecisionEventsLogged(t *testing.T) {
	var buf bytes.Buffer
	st := mustStore(t, Config{
		Schema:    twoAttrSchema(),
		Threshold: 0.8,
		Logger:    obs.NewLogger(&buf, slog.LevelDebug, nil),
	})
	tc := obs.NewTraceContext()
	ctx := obs.ContextWithTrace(context.Background(), tc)

	recs := []dataset.Record{
		{ID: "a1", Values: []string{"ada lovelace", "london"}},
		{ID: "a2", Values: []string{"ada lovelace", "london"}},
		{ID: "b1", Values: []string{"grace hopper", "new york"}},
	}
	for _, r := range recs {
		if _, err := st.Ingest(ctx, r); err != nil {
			t.Fatal(err)
		}
	}

	events := parseEvents(t, &buf, "stream.ingest")
	if len(events) != len(recs) {
		t.Fatalf("%d ingest events for %d records:\n%s", len(events), len(recs), buf.String())
	}
	for i, ev := range events {
		if got := ev["seq"].(float64); int(got) != i {
			t.Errorf("event %d: seq %v", i, got)
		}
		if ev["record_id"] != recs[i].ID {
			t.Errorf("event %d: record_id %v, want %s", i, ev["record_id"], recs[i].ID)
		}
		if ev["trace_id"] != tc.TraceID.String() {
			t.Errorf("event %d: trace_id %v, want %s", i, ev["trace_id"], tc.TraceID)
		}
		for _, key := range []string{"entity_id", "created", "candidates", "matches", "merges"} {
			if _, ok := ev[key]; !ok {
				t.Errorf("event %d missing %q: %v", i, key, ev)
			}
		}
	}
	// The duplicate joined entity 1, so its event says created=false.
	if events[1]["created"] != false || events[1]["entity_id"].(float64) != 1 {
		t.Errorf("duplicate's decision event: %v", events[1])
	}

	// Resolve probes log at debug with the decision outcome.
	probe := dataset.Record{Values: []string{"ada lovelace", "london"}}
	if _, err := st.Resolve(ctx, probe); err != nil {
		t.Fatal(err)
	}
	resolves := parseEvents(t, &buf, "stream.resolve")
	if len(resolves) != 1 || resolves[0]["matched"] != true {
		t.Fatalf("resolve events: %v", resolves)
	}
}

// TestWALReplayDoesNotRelog checks recovery replays the WAL silently:
// the decisions were logged when they happened; re-applying them is
// not a new decision.
func TestWALReplayDoesNotRelog(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "stream.wal")

	var liveBuf bytes.Buffer
	cfg := Config{Schema: twoAttrSchema(), Threshold: 0.8}
	liveCfg := cfg
	liveCfg.Logger = obs.NewLogger(&liveBuf, slog.LevelDebug, nil)
	st := mustStore(t, liveCfg)
	w, err := OpenWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	st.AttachWAL(w)
	ingest(t, st, "a1", "ada lovelace", "london")
	ingest(t, st, "a2", "ada lovelace", "london")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(parseEvents(t, &liveBuf, "stream.ingest")); n != 2 {
		t.Fatalf("live store logged %d ingest events, want 2", n)
	}
	liveFP, err := st.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}

	var recBuf bytes.Buffer
	recCfg := cfg
	recCfg.Logger = obs.NewLogger(&recBuf, slog.LevelDebug, nil)
	rec, err := Recover(recCfg, "", walPath)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() != 2 {
		t.Fatalf("recovered %d records, want 2", rec.Len())
	}
	if n := len(parseEvents(t, &recBuf, "stream.ingest")); n != 0 {
		t.Fatalf("WAL replay re-logged %d ingest decisions:\n%s", n, recBuf.String())
	}
	recFP, err := rec.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if recFP != liveFP {
		t.Fatalf("recovered fingerprint %s, live %s", recFP, liveFP)
	}
}

// TestLagGauges checks the streaming lag gauges: wal_seq tracks
// records admitted, records_since_snapshot resets at each snapshot
// boundary, and PublishLag refreshes both on an idle store.
func TestLagGauges(t *testing.T) {
	reg := obs.NewRegistry()
	st := mustStore(t, Config{Schema: twoAttrSchema(), Threshold: 0.8, Metrics: reg})
	walSeq := reg.Gauge("stream.wal_seq")
	lag := reg.Gauge("stream.records_since_snapshot")

	ingest(t, st, "a1", "ada lovelace", "london")
	ingest(t, st, "b1", "grace hopper", "new york")
	if walSeq.Value() != 2 || lag.Value() != 2 {
		t.Fatalf("after 2 ingests: wal_seq=%v lag=%v", walSeq.Value(), lag.Value())
	}

	var snap bytes.Buffer
	if err := st.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if lag.Value() != 0 {
		t.Fatalf("lag after snapshot: %v", lag.Value())
	}

	ingest(t, st, "c1", "alan turing", "manchester")
	if walSeq.Value() != 3 || lag.Value() != 1 {
		t.Fatalf("after post-snapshot ingest: wal_seq=%v lag=%v", walSeq.Value(), lag.Value())
	}

	// A loaded snapshot starts at its own boundary: zero lag.
	reg2 := obs.NewRegistry()
	cfg2 := Config{Schema: twoAttrSchema(), Threshold: 0.8, Metrics: reg2}
	loaded, err := LoadSnapshot(cfg2, bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := reg2.Gauge("stream.wal_seq").Value(); got != 2 {
		t.Fatalf("loaded wal_seq: %v", got)
	}
	if got := reg2.Gauge("stream.records_since_snapshot").Value(); got != 0 {
		t.Fatalf("loaded lag: %v", got)
	}
	loaded.PublishLag()
	if got := reg2.Gauge("stream.records_since_snapshot").Value(); got != 0 {
		t.Fatalf("PublishLag moved an idle store's lag: %v", got)
	}
}

// TestResolveExplain checks the decision provenance of a resolve
// probe: every blocked candidate carries its comparison vector and
// score aligned with the feature names, and the merge path replays
// how the winning entity absorbed its records.
func TestResolveExplain(t *testing.T) {
	sch := dataset.Schema{Attributes: []dataset.Attribute{{Name: "t", Type: dataset.AttrText}}}
	st := mustStore(t, Config{
		Schema:    sch,
		Threshold: 0.45,
		LSH:       blocking.MinHashConfig{Q: 2},
	})
	r1 := ingest(t, st, "x", "alpha beta gamma delta")
	r2 := ingest(t, st, "y", "epsilon zeta eta theta iota")
	r3 := ingest(t, st, "z", "alpha beta gamma delta epsilon zeta eta theta iota")
	if len(r3.Merges) != 1 {
		t.Skipf("bridge journaled %d merges; similarity landscape changed", len(r3.Merges))
	}

	probe := dataset.Record{Values: []string{"alpha beta gamma delta"}}
	res, exp, err := st.ResolveExplain(context.Background(), probe)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Matched || res.EntityID != r1.EntityID {
		t.Fatalf("resolve: %+v", res)
	}
	if exp == nil {
		t.Fatal("no explanation")
	}
	if exp.Threshold != 0.45 {
		t.Fatalf("threshold %v", exp.Threshold)
	}
	if len(exp.Features) == 0 || len(exp.Features) != len(st.Features()) {
		t.Fatalf("features: %v", exp.Features)
	}
	if len(exp.Candidates) != res.Candidates {
		t.Fatalf("%d candidate scores for %d candidates", len(exp.Candidates), res.Candidates)
	}
	var matched int
	for _, c := range exp.Candidates {
		if len(c.Vector) != len(exp.Features) {
			t.Fatalf("candidate %d vector %v not aligned with features %v", c.Seq, c.Vector, exp.Features)
		}
		if c.Matched != (c.Score >= exp.Threshold) {
			t.Fatalf("candidate %d matched flag disagrees with its score: %+v", c.Seq, c)
		}
		if c.Matched {
			matched++
		}
		// Post-merge view: every candidate reports its current entity.
		if c.EntityID != r1.EntityID {
			t.Fatalf("candidate %d in entity %d, want %d after merge", c.Seq, c.EntityID, r1.EntityID)
		}
	}
	if matched != len(res.Matches) {
		t.Fatalf("%d matched candidates, resolve reported %d", matched, len(res.Matches))
	}
	// The merge path replays the journal entry that built the entity.
	if len(exp.MergePath) != 1 || exp.MergePath[0].From != r2.EntityID || exp.MergePath[0].Into != r1.EntityID {
		t.Fatalf("merge path: %+v (merge was %+v)", exp.MergePath, r3.Merges[0])
	}
	if got := st.MergePath(r1.EntityID); len(got) != 1 || got[0] != exp.MergePath[0] {
		t.Fatalf("MergePath: %+v", got)
	}
	// An unmatched probe explains its candidates but has no merge path.
	_, miss, err := st.ResolveExplain(context.Background(), dataset.Record{Values: []string{"unrelated words entirely"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(miss.MergePath) != 0 {
		t.Fatalf("unmatched probe has a merge path: %+v", miss.MergePath)
	}
}

// TestPartitionIdenticalWithLogging is the streamdiff determinism
// contract in miniature: the same ingest sequence produces the same
// store fingerprint — and so the same partition — with decision
// logging enabled or disabled.
func TestPartitionIdenticalWithLogging(t *testing.T) {
	var buf bytes.Buffer
	quiet := mustStore(t, Config{Schema: twoAttrSchema(), Threshold: 0.8})
	loud := mustStore(t, Config{
		Schema:    twoAttrSchema(),
		Threshold: 0.8,
		Logger:    obs.NewLogger(&buf, slog.LevelDebug, nil),
	})
	for _, st := range []*Store{quiet, loud} {
		ingest(t, st, "a1", "ada lovelace", "london")
		ingest(t, st, "a2", "ada lovelace", "london")
		ingest(t, st, "b1", "grace hopper", "new york")
	}
	qfp, err := quiet.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	lfp, err := loud.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if qfp != lfp {
		t.Fatalf("logging changed the partition: quiet %s, loud %s", qfp, lfp)
	}
	if buf.Len() == 0 {
		t.Fatal("loud store logged nothing")
	}
}
