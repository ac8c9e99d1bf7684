package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"time"

	"transer/internal/eval"
	"transer/internal/experiments"
	"transer/internal/ml/logreg"
	"transer/internal/obs"
	"transer/internal/pipeline"
	"transer/internal/transfer"
)

// gridScale keeps one Table 2 pass near 50 s on one core: TCA's cost is
// set by its 256 landmarks, so smaller scales save little and make the
// data sets too small to be representative.
const gridScale = 0.05

// gridSetupRound is the budget of each of grid's two set-up rounds,
// before and after the Table 2 pass: no round fits inside the pass, a
// single call, so grid's rounds are longer than the other workloads'.
const gridSetupRound = time.Second

// gridDatasets are the dataset keys the eight paper tasks use, each
// once.
func gridDatasets() []string {
	seen := map[string]bool{}
	var keys []string
	for _, t := range pipeline.PaperTaskRefs() {
		for _, k := range []string{t.Source, t.Target} {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	return keys
}

func gridRequest(key string) pipeline.Request {
	return pipeline.Request{Dataset: pipeline.MustDataset(key), Scale: gridScale, Workers: 1}
}

// runGrid times experiments.Table2 on a store that set-up filled, so
// the timed call runs on cache hits and set-up alone pays for domain
// construction.
func runGrid(cfg runConfig, g *gate) (*outcome, error) {
	out := newOutcome()
	keys := gridDatasets()

	var (
		st     *pipeline.Store
		tr     *obs.Tracer
		rec    *recorder
		setupT int
	)
	setups := &setupTimer{setup: func() (func() error, error) {
		st = pipeline.NewStore()
		if cfg.traced {
			tr = obs.New("perfbench-grid")
			st.Instrument(tr)
			rec = &recorder{}
			setupT = rec.begin("setup", -1)
		}
		for _, k := range keys {
			rec.wrap("pipeline.domain", setupT, func() { st.Domain(gridRequest(k)) })
		}
		rec.finish(setupT)
		return func() error {
			st, tr, rec = nil, nil, nil
			return nil
		}, nil
	}}
	if err := setups.round(gridSetupRound); err != nil {
		return nil, err
	}

	// The built domains do not depend on the workload seed.
	d := newDigester()
	pairs := 0
	for _, k := range keys {
		dom := st.Domain(gridRequest(k))
		pairs += len(dom.Pairs)
		digestDomain(d, dom.Pairs, dom.X, dom.Y)
	}
	g.fixed("domains", d.sum())

	// Warm-up: every method once, with one classifier, on the smallest
	// task. It is also the op the tracing-overhead probe repeats. Its
	// traced side records what the traced Table 2 pass records: a cell:*
	// span per method on a tracer with a classifier:* child, TransER's
	// phase spans under that child, and lookups on an instrumented store.
	first := pipeline.PaperTaskRefs()[0]
	warmOp := func(st *pipeline.Store, tr *obs.Tracer) time.Duration {
		start := time.Now()
		task := gridTask(st, first)
		for _, m := range gridMethods(cfg.seed) {
			cell := tr.Root().Child("cell:" + first.Name() + "/" + m.Name())
			cs := cell.Child("classifier:LR")
			if te, ok := m.(transfer.TransER); ok {
				te.Config.Obs = cs
				m = te
			}
			_, err := m.Run(task, logreg.Factory(logreg.Config{}))
			cs.End()
			cell.End()
			if err != nil {
				g.fail("warm-up %s: %v", m.Name(), err)
			}
		}
		return time.Since(start)
	}
	warmOp(st, nil)
	if cfg.traced {
		// A traced run's store is instrumented; the untraced side of the
		// probe gets a plain store holding the same two domains.
		plain := pipeline.NewStore()
		gridTask(plain, first)
		out.metrics["trace.overhead_pct"] = overheadProbe(3, func(traced bool) time.Duration {
			if traced {
				return warmOp(st, obs.New("probe"))
			}
			return warmOp(plain, nil)
		})
	}

	opts := experiments.Options{Scale: gridScale, Seed: cfg.seed, SkipSlow: true, Workers: 1, Store: st, Obs: tr}
	before := st.Stats()
	seen := map[string]string{}
	var passWalls []float64
	var timed time.Duration
	runtime.GC()
	m0 := memStats()
	for len(passWalls) == 0 || timed < cfg.seconds {
		start := time.Now()
		res, err := experiments.Table2(opts)
		wall := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("table2: %w", err)
		}
		timed += wall
		passWalls = append(passWalls, wall.Seconds())
		for _, row := range res.Rows {
			out.attempted++
			if row.Err != nil {
				out.failed++
				g.fail("cell %s/%s: %v", row.Task, row.Method, row.Err)
			}
		}
		checkGrid(g, res, seen)
	}
	mem := deltaOf(m0, memStats())
	after := st.Stats()

	// A grid user waits for the whole table, so the pass is the op
	// whose latency is reported. Cells are too unlike one another (a
	// Naive cell takes milliseconds, a TCA cell seconds) for their
	// percentiles to be steady: which cell sits at a given rank changes
	// with the classifier seeds.
	out.extra["wall_s"] = median(passWalls)
	out.metrics["throughput_per_s"] = float64(out.attempted) / timed.Seconds()
	out.metrics["latency_p50_ms"] = 1000 * median(passWalls)
	out.metrics["latency_tail_ms"] = 1000 * slices.Max(passWalls)
	out.extra["passes"] = float64(len(passWalls))

	if cfg.traced {
		out.metrics["experiments.cells"] = float64(out.attempted)
		out.metrics["experiments.cell_failures"] = float64(out.failed)
		out.metrics["pipeline.domain_s"] = rec.totals()["pipeline.domain"].Seconds()
		out.metrics["pipeline.candidate_pairs"] = float64(pairs)
		hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
		out.metrics["pipeline.store_hit_ratio"] = float64(hits) / float64(hits+misses)
		var inCells time.Duration
		runs := 0
		for _, c := range tr.Root().Children() {
			name, ok := strings.CutPrefix(c.Name(), "cell:")
			if !ok {
				continue
			}
			method := name[strings.LastIndex(name, "/")+1:]
			key := "transfer." + strings.ToLower(strings.TrimSuffix(method, "*")) + "_s"
			out.metrics[key] += c.Duration().Seconds()
			inCells += c.Duration()
			for _, cl := range c.Children() {
				if strings.HasPrefix(cl.Name(), "classifier:") {
					runs++
				}
			}
		}
		out.metrics["ml.classifier_runs"] = float64(runs)
		storeStages(tr, out)
		corePhases(tr.Root().Children(), out)
		out.metrics["trace.unattributed_pct"] = 100 * (timed - inCells).Seconds() / timed.Seconds()
		out.metrics["runtime.alloc_mb"] = mem.allocMB
		out.metrics["runtime.gc_cycles"] = float64(mem.gcs)
	}
	if err := setups.finish(out, gridSetupRound); err != nil {
		return nil, err
	}
	return out, nil
}

// storeStages reads the instrumented store's own stage spans (block:*,
// compare:*, label:* under its "pipeline" span) from the set-up that
// filled the store, so they split the work setup_s times.
func storeStages(tr *obs.Tracer, out *outcome) {
	stage := map[string]time.Duration{}
	for _, sp := range tr.Root().Find("pipeline").Children() {
		name, _, _ := strings.Cut(sp.Name(), ":")
		stage[name] += sp.Duration()
	}
	for _, name := range []string{"block", "compare", "label"} {
		out.metrics["pipeline."+name+"_ms"] = ms(stage[name])
	}
}

// corePhases reads TransER's own phase spans from the traced pass:
// every TransER cell holds one classifier:* span per classifier run,
// and each of those holds sel (with sel_query, sel_build and sel_dedup,
// or sel_cache when the experiment's selection cache hits), gen (fit,
// predict) and tcl (fit, predict). Times and counts are per run.
func corePhases(cells []*obs.Span, out *outcome) {
	phase := map[string]string{
		"sel": "core.sel_ms", "sel/sel_query": "core.sel_query_ms",
		"sel/sel_build": "core.sel_build_ms", "sel/sel_dedup": "core.sel_dedup_ms",
		"gen/fit": "core.gen_fit_ms", "gen/predict": "core.gen_predict_ms",
		"tcl/fit": "core.tcl_fit_ms", "tcl/predict": "core.tcl_predict_ms",
	}
	for _, name := range phase {
		out.metrics[name] = 0
	}
	var runs, source, selected, confident, tclRows int64
	for _, c := range cells {
		if !strings.HasSuffix(c.Name(), "/"+transfer.TransER{}.Name()) {
			continue
		}
		for _, run := range c.Children() {
			runs++
			source += intAttr(run, "source_instances")
			for _, ph := range run.Children() {
				if name, ok := phase[ph.Name()]; ok {
					out.metrics[name] += ms(ph.Duration())
				}
				for _, sub := range ph.Children() {
					if name, ok := phase[ph.Name()+"/"+sub.Name()]; ok {
						out.metrics[name] += ms(sub.Duration())
					}
				}
			}
			selected += intAttr(run.Find("sel"), "selected")
			confident += intAttr(run.Find("gen"), "pseudo_labels")
			tclRows += intAttr(run.Find("tcl"), "balanced_train")
		}
	}
	for _, name := range phase {
		out.metrics[name] /= float64(runs)
	}
	out.metrics["core.sel_kept_ratio"] = float64(selected) / float64(source)
	out.metrics["core.gen_confident"] = float64(confident) / float64(runs)
	out.metrics["core.tcl_train_rows"] = float64(tclRows) / float64(runs)
}

// intAttr returns sp's integer attribute key, 0 when it has none.
func intAttr(sp *obs.Span, key string) int64 {
	for _, a := range sp.Attrs() {
		if a.Key == key && a.Kind == obs.KindInt {
			return a.Int
		}
	}
	return 0
}

// gridMethods is the Table 2 method set under SkipSlow, seeded like the
// experiment harness seeds it.
func gridMethods(seed int64) []transfer.Method {
	return []transfer.Method{
		transfer.TransER{},
		transfer.Naive{},
		transfer.DR{Seed: seed},
		transfer.LocIT{Seed: seed},
		transfer.TCA{Seed: seed},
		transfer.Coral{},
	}
}

// gridTask assembles one transfer task from the store's domains.
func gridTask(st *pipeline.Store, ref pipeline.TaskRef) *transfer.Task {
	src := st.Domain(gridRequest(ref.Source))
	tgt := st.Domain(gridRequest(ref.Target))
	return &transfer.Task{
		XS: src.X, YS: src.Y, XT: tgt.X,
		SourceA: src.A, SourceB: src.B, TargetA: tgt.A, TargetB: tgt.B,
		SourcePairs: src.Pairs, TargetPairs: tgt.Pairs,
	}
}

// checkGrid gates one Table 2 pass: every cell present and in range,
// and the rendered quality table equal to the recorded digest for this
// seed and to every earlier pass of the run.
func checkGrid(g *gate, res *experiments.Table2Result, seen map[string]string) {
	tasks := len(pipeline.PaperTaskRefs())
	methods := len(gridMethods(0))
	g.require(len(res.Rows) == tasks*methods, "table2 has %d cells, want %d", len(res.Rows), tasks*methods)
	for _, row := range res.Rows {
		if row.Err != nil {
			continue
		}
		for _, a := range []eval.Aggregate{row.Quality.Precision, row.Quality.Recall, row.Quality.FStar, row.Quality.F1} {
			g.require(!math.IsNaN(a.Mean) && a.Mean >= 0 && a.Mean <= 100,
				"cell %s/%s: quality %v outside [0, 100]", row.Task, row.Method, a.Mean)
		}
	}
	var buf bytes.Buffer
	res.QualityTable().Render(&buf)
	sum := digestOf(buf.Bytes())
	if _, again := seen["quality"]; !again {
		g.seeded("quality", sum)
	}
	g.same(seen, "quality", sum)
}
