// Command benchreport condenses transer.obs.report/v1 run reports
// (the -metrics-out output of cmd/experiments and friends) into the
// BENCH_*.json perf-trajectory format: per-phase wall-time totals per
// run, ready to diff across commits.
//
// Usage:
//
//	experiments -exp table2 -scale 0.5 -workers 1 -metrics-out w1.json
//	experiments -exp table2 -scale 0.5 -workers 0 -metrics-out wN.json
//	benchreport -note "host: ..." w1.json wN.json > BENCH_table2.json
//
// For every report, the tool walks the span tree and sums durations by
// phase: the TransER phases (sel, gen, tcl and their fit/predict
// children) and the pipeline stages (generate, block, compare, label;
// stage spans are named "stage:dataset@scale", aggregated by stage).
// Reports from cmd/serve aggregate too: its request spans keep their
// route ("request:match", "request:batch") so the two endpoints stay
// separable in the summary. Reports from cmd/query contribute the
// query-engine operator phases (plan, scan, block, compare, score,
// filter); "block:<strategy>" spans fold into the shared "block"
// phase. Reports from cmd/stream contribute the streaming phases
// (ingest, resolve), one span per record, so BENCH_stream.json
// carries per-record latency as TotalMS / Count.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"transer/internal/obs"
)

// BenchSchemaVersion identifies the summary format.
const BenchSchemaVersion = "transer.obs.bench/v1"

// Bench is the checked-in BENCH_*.json document.
type Bench struct {
	Schema string     `json:"schema"`
	Note   string     `json:"note,omitempty"`
	Runs   []BenchRun `json:"runs"`
}

// BenchRun summarises one run report.
type BenchRun struct {
	Args       []string         `json:"args,omitempty"`
	GoVersion  string           `json:"go_version"`
	NumCPU     int              `json:"num_cpu"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	WallMS     float64          `json:"wall_ms"`
	Cells      int              `json:"cells"`
	Phases     map[string]Phase `json:"phases"`
}

// Phase is the aggregate over every span of one phase.
type Phase struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
}

// phases lists the span names aggregated into the summary; pipeline
// stage spans carry a ":dataset@scale" suffix stripped by baseName.
var phases = map[string]bool{
	"sel": true, "gen": true, "tcl": true,
	"fit": true, "predict": true,
	// SEL sub-phases (DESIGN.md §10): the selector's dedup, index
	// build and query stages. They nest under "sel" and also
	// aggregate into it, like fit/predict under gen/tcl.
	"sel_dedup": true, "sel_build": true, "sel_query": true,
	// A method's classifier-independent stage, run once per grid cell
	// (transfer.Method.Prepare), with TCA's and DR's own stages under
	// it.
	"prepare": true, "kernel": true, "eigen": true, "project": true,
	"represent": true, "weight": true, "resample": true,
	"generate": true, "block": true, "compare": true, "label": true,
	"request": true,
	// Query-engine operators (cmd/query -metrics-out): planning plus
	// the executed plan's Scan → Block → Compare → Score → Filter
	// stages. Block spans are named "block:<strategy>" and fold into
	// the shared "block" phase via baseName.
	"plan": true, "scan": true, "score": true, "filter": true,
	// Streaming entity store (cmd/stream -metrics-out): one span per
	// ingested record and per read-only resolve probe, so Count is the
	// record count and TotalMS/Count the per-record latency.
	"ingest": true, "resolve": true,
	// Model repository (cmd/repo bench -metrics-out): signature build
	// per builtin dataset ("sign:<key>"), search sweeps over synthetic
	// catalogs ("search:<size>") and the artifact training that feeds
	// the ensemble comparison ("train:pair"). The score phase above
	// covers the single-vs-ensemble scoring rows.
	"sign": true, "search": true, "train": true,
	// Observability phases: "log:flush" is the structured-log shutdown
	// flush every binary spans when -log-out is set; "trace" covers
	// trace-capture maintenance spans; "explain" covers provenance
	// assembly on ?explain=1 requests. Their cost is what the
	// log-enabled vs log-disabled rows of BENCH_serve.json compare.
	"log": true, "trace": true, "explain": true,
}

func baseName(name string) string {
	if i := strings.IndexByte(name, ':'); i >= 0 {
		return name[:i]
	}
	return name
}

// Summarize condenses one validated report into a BenchRun.
func Summarize(r *obs.Report) BenchRun {
	run := BenchRun{
		Args:       r.Args,
		GoVersion:  r.GoVersion,
		NumCPU:     r.NumCPU,
		GOMAXPROCS: r.GOMAXPROCS,
		WallMS:     r.WallMS,
		Phases:     map[string]Phase{},
	}
	r.Span.Walk(func(n *obs.SpanNode) {
		base := baseName(n.Name)
		if base == "cell" {
			run.Cells++
		}
		if !phases[base] {
			return
		}
		key := base
		if base == "request" {
			// Serve request spans aggregate per route, not lumped.
			key = n.Name
		}
		p := run.Phases[key]
		p.Count++
		p.TotalMS += n.DurMS
		run.Phases[key] = p
	})
	return run
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
}

func run() error {
	note := flag.String("note", "", "free-form capture-environment note embedded in the summary")
	flag.Parse()
	if flag.NArg() == 0 {
		return fmt.Errorf("usage: benchreport [-note ...] report.json...")
	}
	bench := Bench{Schema: BenchSchemaVersion, Note: *note}
	for _, path := range flag.Args() {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		r, err := obs.ValidateReportBytes(b)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		bench.Runs = append(bench.Runs, Summarize(r))
	}
	out, err := json.MarshalIndent(bench, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(out))
	return err
}
