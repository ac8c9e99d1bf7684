package experiments

import (
	"fmt"

	"transer/internal/core"
	"transer/internal/eval"
	"transer/internal/parallel"
	"transer/internal/pipeline"
)

// SweepRow is one parameter/fraction setting's aggregated quality on
// one task.
type SweepRow struct {
	Task    string
	Setting string
	Value   float64
	Quality eval.MetricsAggregate
}

// Figure6 measures TransER's sensitivity to the labelled source
// fraction (25%..100%) on the three representative tasks. The (task,
// fraction) cells run concurrently; each subsets the source with a
// seed derived from (Seed, fraction) rather than shared RNG state, so
// the rows are identical for every worker count.
func Figure6(opts Options) ([]SweepRow, error) {
	opts = opts.withDefaults()
	built := representativeTasks(opts)
	fracs := []float64{0.25, 0.5, 0.75, 1.0}
	out := make([]SweepRow, len(built)*len(fracs))
	errs := make([]error, len(out))
	expSpan := opts.parentSpan()
	parallel.ForEach(opts.Workers, len(out), func(cell int) {
		bt := built[cell/len(fracs)]
		frac := fracs[cell%len(fracs)]
		sub := labelFractionTask(bt, frac, opts.Seed+int64(frac*100))
		cfg := core.DefaultConfig()
		cfg.Workers = opts.Workers
		sp := expSpan.Child(fmt.Sprintf("cell:%s/frac=%.2f", bt.name, frac))
		ev, err := EvaluateMethod(transERMethod(cfg), sub.task, sub.truthT, opts.Classifiers, sp)
		sp.End()
		if err != nil {
			errs[cell] = fmt.Errorf("%s: %w", bt.name, err)
			return
		}
		out[cell] = SweepRow{Task: bt.name, Setting: "label-fraction", Value: frac, Quality: ev.Aggregate}
	})
	if err := parallel.FirstError(errs); err != nil {
		return nil, err
	}
	return out, nil
}

// representativeTasks builds the three sensitivity/ablation tasks
// through the domain store: across Figure 6, Figure 7 and Table 4
// sharing one store, each underlying domain is built exactly once.
func representativeTasks(opts Options) []builtTask {
	st := opts.store()
	tasks := pipeline.RepresentativeTaskRefs()
	return parallel.Map(opts.Workers, len(tasks), func(i int) builtTask {
		return buildTask(st, tasks[i], opts)
	})
}

// Figure7 measures TransER's sensitivity to t_c, t_l, t_p and k on the
// representative tasks, varying one parameter at a time around the
// defaults (the paper's Section 5.3 protocol). The flattened (task,
// parameter, value) grid fans out over opts.Workers goroutines with
// one pre-assigned output slot per cell.
func Figure7(opts Options) ([]SweepRow, error) {
	opts = opts.withDefaults()
	type sweep struct {
		name   string
		values []float64
		apply  func(cfg *core.Config, v float64)
	}
	sweeps := []sweep{
		{"t_c", []float64{0.5, 0.6, 0.7, 0.8, 0.9, 1.0},
			func(cfg *core.Config, v float64) { cfg.TC = v }},
		{"t_l", []float64{0.5, 0.6, 0.7, 0.8, 0.9, 1.0},
			func(cfg *core.Config, v float64) { cfg.TL = v }},
		{"t_p", []float64{0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 1.0},
			func(cfg *core.Config, v float64) { cfg.TP = v }},
		{"k", []float64{3, 5, 7, 9, 11},
			func(cfg *core.Config, v float64) { cfg.K = int(v) }},
	}
	built := representativeTasks(opts)
	type cell struct {
		task  int
		sweep int
		value float64
	}
	var cells []cell
	for t := range built {
		for s, sw := range sweeps {
			for _, v := range sw.values {
				cells = append(cells, cell{task: t, sweep: s, value: v})
			}
		}
	}
	out := make([]SweepRow, len(cells))
	errs := make([]error, len(cells))
	expSpan := opts.parentSpan()
	parallel.ForEach(opts.Workers, len(cells), func(i int) {
		c := cells[i]
		bt := built[c.task]
		sw := sweeps[c.sweep]
		cfg := core.DefaultConfig()
		cfg.Workers = opts.Workers
		sw.apply(&cfg, c.value)
		sp := expSpan.Child(fmt.Sprintf("cell:%s/%s=%.2f", bt.name, sw.name, c.value))
		ev, err := EvaluateMethod(transERMethod(cfg), bt.task, bt.truthT, opts.Classifiers, sp)
		sp.End()
		if err != nil {
			errs[i] = fmt.Errorf("%s: %w", bt.name, err)
			return
		}
		out[i] = SweepRow{Task: bt.name, Setting: sw.name, Value: c.value, Quality: ev.Aggregate}
	})
	if err := parallel.FirstError(errs); err != nil {
		return nil, err
	}
	return out, nil
}

// Table4 runs the component ablations of the paper's Table 4 on the
// representative tasks.
func Table4(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	variants := []struct {
		name string
		cfg  core.Config
	}{
		{"TransER", core.DefaultConfig()},
		{"without GEN & TCL", withCfg(func(c *core.Config) { c.DisableGENTCL = true })},
		{"without SEL", withCfg(func(c *core.Config) { c.DisableSEL = true })},
		{"without sim_c", withCfg(func(c *core.Config) { c.DisableSimC = true })},
		{"without sim_l", withCfg(func(c *core.Config) { c.DisableSimL = true })},
		{"TransER + sim_v", withCfg(func(c *core.Config) { c.EnableSimV = true })},
	}
	t := &Table{
		Caption: "Table 4: ablation analysis (mean ± std over classifiers)",
		Header:  []string{"Source -> Target", "Measure"},
	}
	for _, v := range variants {
		t.Header = append(t.Header, v.name)
	}
	built := representativeTasks(opts)
	// One (task, variant) quality aggregate per grid cell.
	quality := make([]eval.MetricsAggregate, len(built)*len(variants))
	errs := make([]error, len(quality))
	expSpan := opts.parentSpan()
	parallel.ForEach(opts.Workers, len(quality), func(cell int) {
		bt := built[cell/len(variants)]
		v := variants[cell%len(variants)]
		cfg := v.cfg
		cfg.Workers = opts.Workers
		sp := expSpan.Child("cell:" + bt.name + "/" + v.name)
		ev, err := EvaluateMethod(transERMethod(cfg), bt.task, bt.truthT, opts.Classifiers, sp)
		sp.End()
		if err != nil {
			errs[cell] = fmt.Errorf("ablation %q on %s: %w", v.name, bt.name, err)
			return
		}
		quality[cell] = ev.Aggregate
	})
	if err := parallel.FirstError(errs); err != nil {
		return nil, err
	}
	for ti, bt := range built {
		add := func(meas string, get func(eval.MetricsAggregate) eval.Aggregate) {
			row := []string{bt.name, meas}
			for vi := range variants {
				row = append(row, agg(get(quality[ti*len(variants)+vi])))
			}
			t.Rows = append(t.Rows, row)
		}
		add("P", func(a eval.MetricsAggregate) eval.Aggregate { return a.Precision })
		add("R", func(a eval.MetricsAggregate) eval.Aggregate { return a.Recall })
		add("F*", func(a eval.MetricsAggregate) eval.Aggregate { return a.FStar })
		add("F1", func(a eval.MetricsAggregate) eval.Aggregate { return a.F1 })
	}
	return t, nil
}

func withCfg(mod func(*core.Config)) core.Config {
	cfg := core.DefaultConfig()
	mod(&cfg)
	return cfg
}

// SweepTable renders sweep rows grouped by setting.
func SweepTable(caption string, rows []SweepRow) *Table {
	t := &Table{
		Caption: caption,
		Header:  []string{"Task", "Setting", "Value", "P", "R", "F*", "F1"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Task, r.Setting, fmt.Sprintf("%.2f", r.Value),
			agg(r.Quality.Precision), agg(r.Quality.Recall),
			agg(r.Quality.FStar), agg(r.Quality.F1),
		})
	}
	return t
}
