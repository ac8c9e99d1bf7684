// Command experiments regenerates the tables and figures of the
// TransER paper's evaluation section (Section 5) on the synthetic data
// set stand-ins.
//
// Usage:
//
//	experiments -exp all                  # everything
//	experiments -exp table2 -scale 0.5    # one experiment at a scale
//	experiments -exp table2 -skip-slow    # drop DTAL* (0.07-1.65 s per run at scale 0.5)
//	experiments -exp table2 -workers 4    # bound the worker pool
//	experiments -exp all -cache-stats     # report domain store use
//	experiments -exp table2 -metrics-out report.json   # JSON run report
//	experiments -exp table2 -cpuprofile cpu.pprof \
//	            -memprofile mem.pprof -exectrace trace.out
//
// Experiments: table1, figure2, figure5, table2 (includes table3),
// figure6, figure7, table4, all.
//
// All experiments share one memoized domain store, so each distinct
// domain is generated, blocked, compared and labelled exactly once per
// run no matter how many tables and figures use it; -cache-stats
// reports the domain requests served from the store (hits), the domains
// built (misses) and the memoized bytes after the run.
//
// Every run is traced: -metrics-out writes the hierarchical span tree
// (experiment → grid cell → classifier → SEL/GEN/TCL phase, plus the
// pipeline's per-stage build spans) and the metrics snapshot (store
// hit/miss counters, worker-pool queue-wait/latency/utilisation
// histograms) as a transer.obs.report/v1 JSON document.
//
// All output except the wall-clock lines and the Table 3 runtime
// column is byte-identical for every -workers value (including 1),
// identical whether domains come fresh from a build or from the
// store, and identical with observability on or off.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"transer/internal/experiments"
	"transer/internal/obs"
	"transer/internal/parallel"
	"transer/internal/pipeline"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	var (
		exp        = flag.String("exp", "all", "experiment to run: table1|figure2|figure5|table2|figure6|figure7|table4|all")
		scale      = flag.Float64("scale", 0.5, "data set size scale factor")
		seed       = flag.Int64("seed", 1, "random seed")
		skipSlow   = flag.Bool("skip-slow", false, "skip the slowest baseline (DTAL*)")
		workers    = flag.Int("workers", 0, "max worker goroutines (0 = one per CPU, 1 = serial)")
		cacheStats = flag.Bool("cache-stats", false, "report domain store hits/misses (domains built)/bytes after the run")
		metricsOut = flag.String("metrics-out", "", "write a JSON run report (spans + metrics) to `file`")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to `file`")
		memprofile = flag.String("memprofile", "", "write a heap profile to `file` at exit")
		exectrace  = flag.String("exectrace", "", "write a runtime execution trace to `file`")
	)
	flag.Parse()

	stopProfiles, err := obs.StartProfiles(*cpuprofile, *memprofile, *exectrace)
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()

	// One tracer and one domain store for the whole run: every
	// experiment records under the same span tree, and each distinct
	// domain is built exactly once however many tables request it.
	tr := obs.New("experiments")
	parallel.RegisterMetrics(tr.Metrics())
	defer parallel.RegisterMetrics(nil)
	store := pipeline.NewStore()
	store.Instrument(tr)
	opts := experiments.Options{
		Scale: *scale, Seed: *seed, SkipSlow: *skipSlow,
		Workers: *workers, Store: store, Obs: tr,
	}

	ran := false
	for _, name := range experiments.Names() {
		if *exp != "all" && *exp != name && !(*exp == "table3" && name == "table2") {
			continue
		}
		ran = true
		dur, err := experiments.RunExperiment(os.Stdout, name, opts)
		if err != nil {
			return fmt.Errorf("%s failed: %v", experiments.HeadName(name), err)
		}
		fmt.Printf("-- %s done in %v\n\n", experiments.HeadName(name), dur.Round(time.Millisecond))
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", *exp)
	}

	parallel.PublishStats(tr.Metrics())
	snap := tr.Metrics().Snapshot()
	if *cacheStats {
		fmt.Printf("cache-stats: %d hits, %d misses, %d bytes memoized\n",
			snap.Counters["pipeline.store.hits_total"],
			snap.Counters["pipeline.store.misses_total"],
			int64(snap.Gauges["pipeline.store.bytes"]))
	}
	if *metricsOut != "" {
		report := obs.BuildReport("experiments", os.Args[1:], tr)
		if err := report.WriteFile(*metricsOut); err != nil {
			return err
		}
	}
	return nil
}
