package experiments

import (
	"bytes"
	"strings"
	"testing"

	"transer/internal/obs"
)

// renderTraced renders one experiment with a fresh tracer attached and
// returns the output alongside the tracer for span inspection.
func renderTraced(t *testing.T, name string, opts Options) (string, *obs.Tracer) {
	t.Helper()
	tr := obs.New("test")
	opts.Obs = tr
	var buf bytes.Buffer
	if err := RenderExperiment(&buf, name, opts); err != nil {
		t.Fatalf("%s (traced): %v", name, err)
	}
	return buf.String(), tr
}

// TestRenderIdenticalWithTracing is the observability side of the
// determinism guarantee: every rendered byte must be identical whether
// a tracer is attached or not. Instrumentation observes; it never
// participates.
func TestRenderIdenticalWithTracing(t *testing.T) {
	for _, name := range []string{"table1", "figure2"} {
		plain := renderAt(t, name, tiny(), 2)
		traced, _ := renderTraced(t, name, tiny())
		firstDiff(t, name+": tracing off vs on", plain, traced)
	}
}

func TestTable2IdenticalWithTracing(t *testing.T) {
	if testing.Short() {
		t.Skip("method grid too slow for -short")
	}
	// As in the worker-count determinism tests, only the quality table
	// is compared byte for byte: the runtime columns report wall clock,
	// which no two runs share.
	quality := func(tr *obs.Tracer) string {
		opts := tiny()
		opts.Workers = 4
		opts.Obs = tr
		res, err := Table2(opts)
		if err != nil {
			t.Fatalf("Table2(traced=%v): %v", tr != nil, err)
		}
		var buf bytes.Buffer
		res.QualityTable().Render(&buf)
		return buf.String()
	}
	plain := quality(nil)
	tr := obs.New("test")
	firstDiff(t, "table2 quality: tracing off vs on", plain, quality(tr))

	// Table2 was called directly (no RunExperiment wrapper), so cell
	// spans nest under the tracer root. Each holds one prepare span,
	// with the method's own stages beneath it, then one classifier span
	// per fit; TransER's classifier spans hold its GEN and TCL phases.
	exp := tr.Root()
	stages := map[string][]string{
		"TransER": {"sel"},
		"TCA":     {"kernel", "eigen", "project"},
		"DR":      {"represent", "weight", "resample"},
	}
	var cells int
	for _, c := range exp.Children() {
		if !strings.HasPrefix(c.Name(), "cell:") {
			continue
		}
		cells++
		method := c.Name()[strings.LastIndex(c.Name(), "/")+1:]
		kids := c.Children()
		if len(kids) != 1+len(tiny().Classifiers) || kids[0].Name() != "prepare" {
			t.Fatalf("%s: children %v, want prepare then one classifier span per fit", c.Name(), spanNames(kids))
		}
		if got, want := spanNames(kids[0].Children()), stages[method]; strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%s: prepare stages %v, want %v", c.Name(), got, want)
		}
		for _, k := range kids[1:] {
			if !strings.HasPrefix(k.Name(), "classifier:") {
				t.Errorf("%s: unexpected span %s after prepare", c.Name(), k.Name())
			}
			if method == "TransER" && (k.Find("gen") == nil || k.Find("tcl") == nil) {
				t.Errorf("%s: %s lacks the gen/tcl phases: %v", c.Name(), k.Name(), spanNames(k.Children()))
			}
		}
	}
	if cells == 0 {
		t.Fatalf("no cell spans; root children: %v", spanNames(exp.Children()))
	}
	for _, phase := range []string{"sel", "gen", "tcl"} {
		if exp.Find(phase) == nil {
			t.Errorf("no %s phase span anywhere under the experiment", phase)
		}
	}
	sel := exp.Find("sel")
	found := false
	for _, a := range sel.Attrs() {
		if a.Key == "selected" {
			found = true
		}
	}
	if !found {
		t.Errorf("sel span lacks the selected-instances attribute: %v", sel.Attrs())
	}
	if exp.Find("fit") == nil || exp.Find("predict") == nil {
		t.Errorf("classifier fit/predict spans missing")
	}
}

// TestStoreInstrumented checks that an instrumented store mirrors its
// hit/miss counters into the registry and opens pipeline stage spans.
func TestStoreInstrumented(t *testing.T) {
	tr := obs.New("test")
	opts := tiny()
	opts.Obs = tr
	// Render the same experiment twice against one Options so the
	// second pass hits the memoized domains.
	st := opts.store()
	opts.Store = st
	var buf bytes.Buffer
	if err := RenderExperiment(&buf, "table1", opts); err != nil {
		t.Fatal(err)
	}
	if err := RenderExperiment(&buf, "table1", opts); err != nil {
		t.Fatal(err)
	}
	snap := tr.Metrics().Snapshot()
	if snap.Counters["pipeline.store.misses_total"] == 0 {
		t.Errorf("no store misses recorded: %v", snap.Counters)
	}
	if snap.Counters["pipeline.store.hits_total"] == 0 {
		t.Errorf("second pass produced no store hits: %v", snap.Counters)
	}
	if snap.Gauges["pipeline.store.bytes"] <= 0 {
		t.Errorf("store bytes gauge = %v", snap.Gauges["pipeline.store.bytes"])
	}
	pipe := tr.Root().Find("pipeline")
	if pipe == nil {
		t.Fatalf("no pipeline group span; root children: %v", spanNames(tr.Root().Children()))
	}
	stages := map[string]bool{}
	for _, c := range pipe.Children() {
		stages[stageOf(c.Name())] = true
	}
	for _, want := range []string{"generate", "block", "compare", "label"} {
		if !stages[want] {
			t.Errorf("no %s stage span under pipeline; got %v", want, spanNames(pipe.Children()))
		}
	}
}

func spanNames(spans []*obs.Span) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Name()
	}
	return out
}

// stageOf strips the ":key@scale" suffix from a stage span name.
func stageOf(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == ':' {
			return name[:i]
		}
	}
	return name
}
