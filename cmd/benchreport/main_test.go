package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"transer/internal/obs"
	"transer/internal/testkit"
)

func TestSummarize(t *testing.T) {
	tr := obs.New("experiments")
	pipe := tr.Root().Child("pipeline")
	pipe.Child("generate:msd@0.50").End()
	pipe.Child("block:msd@0.50").End()
	exp := tr.Root().Child("experiment:table2")
	for _, cell := range []string{"cell:A", "cell:B"} {
		c := exp.Child(cell)
		sel := c.Child("sel")
		sel.Child("sel_dedup").End()
		sel.Child("sel_build").End()
		sel.Child("sel_query").End()
		sel.End()
		gen := c.Child("gen")
		gen.Child("fit").End()
		gen.Child("predict").End()
		gen.End()
		c.Child("tcl").End()
		c.End()
	}
	// A third cell laid out as the experiment grid records it: one
	// prepare span holding sel, then a classifier span per fit.
	split := exp.Child("cell:C")
	prep := split.Child("prepare")
	prep.Child("sel").End()
	prep.End()
	cls := split.Child("classifier:svm")
	cls.Child("gen").End()
	cls.Child("tcl").End()
	cls.End()
	split.End()
	exp.End()

	run := Summarize(obs.BuildReport("experiments", []string{"-exp", "table2"}, tr))
	if run.Cells != 3 {
		t.Errorf("cells = %d, want 3", run.Cells)
	}
	wantCounts := map[string]int{
		"sel": 3, "gen": 3, "tcl": 3, "fit": 2, "predict": 2,
		"sel_dedup": 2, "sel_build": 2, "sel_query": 2, "prepare": 1,
		"generate": 1, "block": 1,
	}
	for phase, want := range wantCounts {
		if got := run.Phases[phase].Count; got != want {
			t.Errorf("phase %s count = %d, want %d", phase, got, want)
		}
	}
	if _, ok := run.Phases["cell"]; ok {
		t.Errorf("cell spans must not be aggregated as a phase")
	}
	if _, ok := run.Phases["experiment"]; ok {
		t.Errorf("experiment span must not be aggregated as a phase")
	}
}

func TestBenchreportEndToEnd(t *testing.T) {
	dir := t.TempDir()
	report := filepath.Join(dir, "report.json")
	tr := obs.New("experiments")
	tr.Root().Child("experiment:table2").Child("cell:A").Child("sel").End()
	if err := obs.BuildReport("experiments", nil, tr).WriteFile(report); err != nil {
		t.Fatal(err)
	}
	bin := testkit.BuildBinary(t, "transer/cmd/benchreport")
	out := testkit.RunBinary(t, bin, "-note", "unit test", report)
	var bench Bench
	if err := json.Unmarshal([]byte(out), &bench); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out)
	}
	if bench.Schema != BenchSchemaVersion || bench.Note != "unit test" {
		t.Fatalf("header = %+v", bench)
	}
	if len(bench.Runs) != 1 || bench.Runs[0].Phases["sel"].Count != 1 {
		t.Fatalf("runs = %+v", bench.Runs)
	}

	// Garbage input must fail loudly, not emit an empty summary.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	errOut := testkit.RunBinaryErr(t, bin, bad)
	if !strings.Contains(errOut, "benchreport:") {
		t.Fatalf("want a benchreport error, got:\n%s", errOut)
	}
}

// TestSummarizeServeReport: cmd/serve request spans aggregate per
// route so match and batch latency totals stay separable.
func TestSummarizeServeReport(t *testing.T) {
	tr := obs.New("serve")
	tr.Root().Child("request:match").End()
	tr.Root().Child("request:match").End()
	tr.Root().Child("request:batch").End()
	run := Summarize(obs.BuildReport("serve", nil, tr))
	if got := run.Phases["request:match"].Count; got != 2 {
		t.Errorf("request:match count = %d, want 2", got)
	}
	if got := run.Phases["request:batch"].Count; got != 1 {
		t.Errorf("request:batch count = %d, want 1", got)
	}
	if _, ok := run.Phases["request"]; ok {
		t.Errorf("request spans must not be lumped under one phase")
	}
}
