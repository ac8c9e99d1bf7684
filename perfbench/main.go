// Command perfbench is the repository's end-to-end benchmark. Each
// invocation runs one workload in its own process, driven by a single
// closed-loop client (the next operation starts when the previous one
// returns) with every worker count set to 1:
//
//	grid    the paper's Table 2/3 run: experiments.Table2 over the eight
//	        paper tasks, SkipSlow, the four standard classifiers
//	stream  online entity resolution: a seeded replay of ingest,
//	        resolve and match requests through serve.Server.Handler()
//	        in process, with a WAL-backed stream.Store attached
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload grid --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Earlier lines carry
// a full report and the environment diagnostics. See README.md for the
// metric definitions and the layer → metric → workload table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them (see README.md for each workload's definition).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
}

// perLayer are the traced run's metrics. Every traced run prints all of
// them; a layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	// grid: the Table 2 pass, and the set-up that fills the store
	{"transfer.tca_s", "s"},
	{"transfer.dr_s", "s"},
	{"transfer.locit_s", "s"},
	{"transfer.coral_s", "s"},
	{"transfer.naive_s", "s"},
	{"transfer.transer_s", "s"},
	{"experiments.cells", "count"},
	{"experiments.cell_failures", "count"},
	{"ml.classifier_runs", "count"},
	{"pipeline.domain_s", "s"},
	{"pipeline.candidate_pairs", "count"},
	{"pipeline.store_hit_ratio", "ratio"},
	{"pipeline.block_ms", "ms"},
	{"pipeline.compare_ms", "ms"},
	{"pipeline.label_ms", "ms"},
	{"core.sel_ms", "ms"},
	{"core.sel_query_ms", "ms"},
	{"core.sel_build_ms", "ms"},
	{"core.sel_dedup_ms", "ms"},
	{"core.gen_fit_ms", "ms"},
	{"core.gen_predict_ms", "ms"},
	{"core.tcl_fit_ms", "ms"},
	{"core.tcl_predict_ms", "ms"},
	{"core.sel_kept_ratio", "ratio"},
	{"core.gen_confident", "count"},
	{"core.tcl_train_rows", "count"},
	// stream: the model fixture, then the replays
	{"repo.signature_ms", "ms"},
	{"model.export_ms", "ms"},
	{"model.artifact_bytes", "bytes"},
	{"serve.ingest_self_ms", "ms"},
	{"serve.resolve_self_ms", "ms"},
	{"stream.ingest_ms", "ms"},
	{"stream.resolve_ms", "ms"},
	{"serve.match_ms", "ms"},
	{"serve.resolve_p50_ms", "ms"},
	{"serve.resolve_p99_ms", "ms"},
	{"serve.match_p50_ms", "ms"},
	{"stream.candidates_per_ingest", "count"},
	{"stream.edge_ratio", "ratio"},
	{"stream.merges", "count"},
	{"stream.wal_bytes", "bytes"},
	{"serve.shed", "count"},
	{"serve.errors", "count"},
	// every workload
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.peak_rss_mb", "MB"},
	{"trace.overhead_pct", "%"},
	{"trace.unattributed_pct", "%"},
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds time.Duration
	traced  bool
	workdir string // working directory for files the run writes
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int64
	metrics           map[string]float64 // end-to-end and, when traced, per-layer
	extra             map[string]float64 // reported, never part of the result line
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, extra: map[string]float64{}}
}

var workloads = map[string]func(runConfig, *gate) (*outcome, error){
	"grid":   runGrid,
	"stream": runStream,
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: grid or stream")
		seed    = flag.Int64("seed", mainSeed, "workload seed (classifier and method seeds, Config.Seed, replay order, probes)")
		seconds = flag.Int("seconds", 30, "how long the timed section runs")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		workdir = flag.String("workdir", ".bench_build", "directory for the files a run writes (WAL)")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload grid|stream --seed N --seconds S --trace 0|1")
		return 2
	}
	// One core for the program: with workers=1 and a single client the
	// work is serial, and with one P the Go runtime's own background work
	// (GC marking) shares that core too, instead of running faster or
	// slower with the second core's load.
	runtime.GOMAXPROCS(1)

	steal0 := stealSeconds()
	cal := calibrate()
	g, err := newGate(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *trace == 1, workdir: *workdir}
	out, err := w(cfg, g)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	out.metrics["runtime.peak_rss_mb"] = peakRSSMB()
	diag := diagnostics{
		StealS:        stealSeconds() - steal0,
		CalibrationMS: ms(cal),
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
	}

	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	res := result{Correct: g.ok(), Attempted: out.attempted, Failed: out.failed, Metrics: map[string]resultMetric{}}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !cfg.traced && (!ok || !(v > 0) || math.IsInf(v, 0)) {
			fmt.Fprintf(os.Stderr, "perfbench: %s: end-to-end metric %s not measured (%v)\n", *name, d.name, v)
			return 1
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = resultMetric{Value: v, Unit: d.unit}
	}

	report := map[string]any{
		"workload": *name, "seed": *seed, "trace": *trace,
		"diagnostics": diag, "measured": finite(out.metrics), "extra": finite(out.extra),
	}
	g.writeGate(os.Stderr)
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(report); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// finite maps a metric map for JSON, which has no NaN or infinity: a
// metric with no samples (0/0) reads null.
func finite(m map[string]float64) map[string]any {
	out := make(map[string]any, len(m))
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			out[k] = nil
			continue
		}
		out[k] = v
	}
	return out
}

// Set-up is timed in rounds spread over the run, and setup_s is the
// median of every round's set-ups. On a shared machine a single
// sub-second set-up varies by up to half its time, and the machine
// switches between a fast and a slow state every second or so, so
// set-ups taken in one window of a second sample one state. A round
// repeats fresh set-ups until its wall time reaches its budget (at least
// minSetups, at most maxSetups times). Every workload runs one round
// before and one after the timed section; stream also runs rounds of
// setupRound within it, between replays.
const (
	setupRound = 250 * time.Millisecond
	minSetups  = 3
	maxSetups  = 1000
)

// setupTimer times a workload's set-up. Each set-up returns a teardown
// that releases its state and drops every reference to it. Before the
// next set-up the timer calls that teardown, collects the freed memory
// and returns it to the OS, all outside the timed window, so every
// set-up starts from the same heap with nothing of the previous one
// live. Between rounds the last set-up's state is the run's.
type setupTimer struct {
	setup    func() (teardown func() error, err error)
	teardown func() error
	times    []float64
}

// round runs fresh set-ups until their wall time reaches budget.
func (s *setupTimer) round(budget time.Duration) error {
	begin := time.Now()
	for n := 0; n < minSetups || (time.Since(begin) < budget && n < maxSetups); n++ {
		if err := s.release(); err != nil {
			return err
		}
		debug.FreeOSMemory()
		start := time.Now()
		td, err := s.setup()
		d := time.Since(start)
		if err != nil {
			return err
		}
		s.teardown = td
		s.times = append(s.times, float64(d))
	}
	return nil
}

// release tears down the last set-up, if it is still up.
func (s *setupTimer) release() error {
	if s.teardown == nil {
		return nil
	}
	td := s.teardown
	s.teardown = nil
	return td()
}

// finish runs the round after the timed section, releases its last
// set-up and records setup_s.
func (s *setupTimer) finish(out *outcome, budget time.Duration) error {
	if err := s.round(budget); err != nil {
		return err
	}
	if err := s.release(); err != nil {
		return err
	}
	out.metrics["setup_s"] = time.Duration(median(s.times)).Seconds()
	out.extra["setups"] = float64(len(s.times))
	return nil
}

// overheadProbe times op untraced and traced, alternating, and returns
// the tracing overhead in percent of the untraced median.
func overheadProbe(rounds int, op func(traced bool) time.Duration) float64 {
	var plain, traced []float64
	for i := 0; i < rounds; i++ {
		plain = append(plain, float64(op(false)))
		traced = append(traced, float64(op(true)))
	}
	p := median(plain)
	return 100 * (median(traced) - p) / p
}
