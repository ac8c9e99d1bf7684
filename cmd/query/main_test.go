package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"transer/internal/obs"
	"transer/internal/testkit"
)

// TestQueryExplain checks the EXPLAIN rendering: schema line, the LSH
// block operator with the dataset's recommended configuration, and
// the filter — without executing.
func TestQueryExplain(t *testing.T) {
	bin := testkit.BuildBinary(t, "transer/cmd/query")
	out := testkit.RunBinary(t, bin, "-dataset", "dblp-acm", "-scale", "0.1", "-explain")
	for _, want := range []string{
		"plan: transer.query/v1",
		"block    strategy=lsh hashes=60 bands=20 q=3",
		"filter   score >= 0.85",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "matches") {
		t.Errorf("-explain must not execute the query:\n%s", out)
	}
}

// TestQueryWorkerCountInvariance is the binary-level check of the
// determinism contract: runs at different worker counts produce
// byte-identical CSV output.
func TestQueryWorkerCountInvariance(t *testing.T) {
	bin := testkit.BuildBinary(t, "transer/cmd/query")
	dir := t.TempDir()

	var want []byte
	for i, workers := range []string{"1", "3", "0"} {
		path := filepath.Join(dir, "workers-"+workers+".csv")
		stderr := testkit.RunBinary(t, bin,
			"-dataset", "DBLP-ACM", "-scale", "0.1", "-threshold", "0.9",
			"-workers", workers, "-format", "csv", "-out", path)
		if !strings.Contains(stderr, "candidates") {
			t.Fatalf("workers=%s: no summary line:\n%s", workers, stderr)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("workers=%s: %v", workers, err)
		}
		if len(strings.Split(strings.TrimSpace(string(got)), "\n")) < 2 {
			t.Fatalf("workers=%s found no matches; the test is vacuous:\n%s", workers, got)
		}
		if i == 0 {
			want = got
			continue
		}
		if string(got) != string(want) {
			t.Errorf("workers=%s: result differs from workers=1", workers)
		}
	}
}

// TestQueryComparatorOverride swaps one attribute's comparator from
// the registry and checks it lands in the plan's feature list.
func TestQueryComparatorOverride(t *testing.T) {
	bin := testkit.BuildBinary(t, "transer/cmd/query")
	out := testkit.RunBinary(t, bin, "-dataset", "dblp-acm", "-scale", "0.05",
		"-sim", "authors=smith_waterman", "-explain")
	if !strings.Contains(out, "authors_smith_waterman") {
		t.Errorf("overridden comparator missing from plan features:\n%s", out)
	}
}

// TestQueryMetricsReport validates the run report: a plan span plus
// one span per executed operator, and the engine counters.
func TestQueryMetricsReport(t *testing.T) {
	bin := testkit.BuildBinary(t, "transer/cmd/query")
	report := filepath.Join(t.TempDir(), "report.json")
	testkit.RunBinary(t, bin, "-dataset", "dblp-acm", "-scale", "0.05",
		"-threshold", "0.9", "-metrics-out", report)
	b, err := os.ReadFile(report)
	if err != nil {
		t.Fatalf("report not written: %v", err)
	}
	r, err := obs.ValidateReportBytes(b)
	if err != nil {
		t.Fatalf("report fails schema validation: %v", err)
	}
	for _, name := range []string{"plan", "scan", "block:lsh", "compare", "score", "filter"} {
		if r.Span.Find(name) == nil {
			t.Errorf("report lacks the %s span", name)
		}
	}
	for _, counter := range []string{"query.candidates_total", "query.compared_rows_total"} {
		if r.Metrics.Counters[counter] == 0 {
			t.Errorf("counter %s missing: %v", counter, r.Metrics.Counters)
		}
	}
}

// TestQueryFlagValidation covers the CLI's mutually-exclusive and
// unknown-input diagnostics.
func TestQueryFlagValidation(t *testing.T) {
	bin := testkit.BuildBinary(t, "transer/cmd/query")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{}, "need an input"},
		{[]string{"-dataset", "no-such-set"}, "unknown dataset"},
		{[]string{"-dataset", "mb", "-a", "x.csv"}, "mutually exclusive"},
		{[]string{"-dataset", "mb", "-block", "lsh"}, "flag provided but not defined: -block"},
		{[]string{"-dataset", "mb", "-format", "xml"}, "unknown -format"},
		{[]string{"-dataset", "mb", "-model", "m.json", "-sim", "name=jaccard"}, "cannot be combined"},
	} {
		out := testkit.RunBinaryErr(t, bin, tc.args...)
		if !strings.Contains(out, tc.want) {
			t.Errorf("args %v: want %q in output, got:\n%s", tc.args, tc.want, out)
		}
	}
}

// TestQueryRejectsUnknownLogLevel checks -log-level is validated even
// when -log-out leaves structured logging off.
func TestQueryRejectsUnknownLogLevel(t *testing.T) {
	bin := testkit.BuildBinary(t, "transer/cmd/query")
	out := testkit.RunBinaryErr(t, bin, "-dataset", "DBLP-ACM", "-scale", "0.05", "-explain", "-log-level", "bogus")
	if !strings.Contains(out, `unknown log level "bogus"`) {
		t.Errorf("want an unknown-level diagnostic, got:\n%s", out)
	}
}
