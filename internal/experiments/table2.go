package experiments

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"transer/internal/eval"
	"transer/internal/parallel"
	"transer/internal/pipeline"
	"transer/internal/transfer"
)

// MethodRow is one (task, method) result of the Table 2/3 sweep.
type MethodRow struct {
	Task    string
	Method  string
	Quality eval.MetricsAggregate
	// Runtime is the wall-clock cost of one classifier run (Table 3):
	// the method's prepare time plus its mean fit time.
	Runtime time.Duration
	// Err records methods that failed on this task (reported like the
	// paper's ME/TE entries).
	Err error
}

// Table2Result bundles the full quality/runtime sweep.
type Table2Result struct {
	Rows []MethodRow
	// Sizes records |X^S| and |X^T| per task (Table 3's size columns).
	Sizes map[string][2]int
}

// ErrResourceLimit marks runs skipped for the same reason the paper
// reports 'TE'/'ME' entries: the method cannot complete the task within
// reasonable resources. Rendered as "TE" in tables.
var ErrResourceLimit = errors.New("experiments: resource limit (paper: TE/ME)")

// methods returns the evaluated method set in paper order.
func methods(opts Options) []transfer.Method {
	ms := []transfer.Method{
		transfer.TransER{},
		transfer.Naive{},
	}
	if !opts.SkipSlow {
		ms = append(ms, transfer.DTAL{Seed: opts.Seed, Epochs: 25})
	}
	ms = append(ms,
		transfer.DR{Seed: opts.Seed},
		transfer.LocIT{Seed: opts.Seed},
		transfer.TCA{Seed: opts.Seed},
		transfer.Coral{},
	)
	return ms
}

// singleRunMethods carry their own model and ignore the downstream
// classifier, so the four-classifier protocol degenerates to one run.
func singleRun(m transfer.Method) bool { return m.Name() == "DTAL*" }

// demographicTask reports whether the task uses the large certificate
// data, where the paper's deep baseline exceeded its 72 h budget.
func demographicTask(name string) bool {
	return strings.Contains(name, "Bp-")
}

// Table2 runs every method on every source→target task of the paper's
// Table 2 and aggregates quality over the standard classifiers;
// runtimes feed Table 3.
//
// The (task, method) cells are independent, so they fan out over
// opts.Workers goroutines; each cell writes to its pre-assigned row
// slot, keeping the row order and every quality number identical to a
// serial run. Only the Table 3 wall-clock column varies, as it always
// has. Methods carry no mutable state (Prepare reads the shared task
// and seeds its own randomness from the method's fixed Seed), so
// sharing a builtTask across cells is safe. Each cell prepares its
// method once and fits it once per classifier (see evaluateMethod).
func Table2(opts Options) (*Table2Result, error) {
	opts = opts.withDefaults()
	st := opts.store()
	tasks := pipeline.PaperTaskRefs()
	built := parallel.Map(opts.Workers, len(tasks), func(i int) builtTask {
		return buildTask(st, tasks[i], opts)
	})
	ms := methods(opts)
	res := &Table2Result{
		Rows:  make([]MethodRow, len(built)*len(ms)),
		Sizes: map[string][2]int{},
	}
	for _, bt := range built {
		res.Sizes[bt.name] = [2]int{len(bt.task.XS), len(bt.task.XT)}
	}
	expSpan := opts.parentSpan()
	parallel.ForEach(opts.Workers, len(res.Rows), func(cell int) {
		bt := built[cell/len(ms)]
		m := ms[cell%len(ms)]
		cls := opts.Classifiers
		if singleRun(m) {
			if demographicTask(bt.name) {
				// The paper's DTAL* exceeded the 72 h budget on the
				// demographic tasks; mirror its 'TE' entries rather
				// than spending hours on an expected non-result.
				res.Rows[cell] = MethodRow{
					Task: bt.name, Method: m.Name(), Err: ErrResourceLimit}
				return
			}
			cls = cls[:1]
		}
		sp := expSpan.Child("cell:" + bt.name + "/" + m.Name())
		q, rt, err := evaluateMethod(m, bt, cls, sp)
		sp.End()
		res.Rows[cell] = MethodRow{Task: bt.name, Method: m.Name(), Quality: q,
			Runtime: rt, Err: err}
	})
	return res, nil
}

// QualityTable renders the Table 2 layout (P/R/F*/F1 per task and
// method).
func (r *Table2Result) QualityTable() *Table {
	methodsSeen := orderedMethods(r.Rows)
	t := &Table{
		Caption: "Table 2: linkage quality (mean ± std over classifiers)",
		Header:  append([]string{"Source -> Target", "Measure"}, methodsSeen...),
	}
	byTask := map[string]map[string]MethodRow{}
	var taskOrder []string
	for _, row := range r.Rows {
		if byTask[row.Task] == nil {
			byTask[row.Task] = map[string]MethodRow{}
			taskOrder = append(taskOrder, row.Task)
		}
		byTask[row.Task][row.Method] = row
	}
	measures := []struct {
		name string
		get  func(eval.MetricsAggregate) eval.Aggregate
	}{
		{"P", func(a eval.MetricsAggregate) eval.Aggregate { return a.Precision }},
		{"R", func(a eval.MetricsAggregate) eval.Aggregate { return a.Recall }},
		{"F*", func(a eval.MetricsAggregate) eval.Aggregate { return a.FStar }},
		{"F1", func(a eval.MetricsAggregate) eval.Aggregate { return a.F1 }},
	}
	for _, task := range taskOrder {
		for _, meas := range measures {
			row := []string{task, meas.name}
			for _, m := range methodsSeen {
				mr, ok := byTask[task][m]
				switch {
				case !ok:
					row = append(row, "-")
				case errors.Is(mr.Err, ErrResourceLimit):
					row = append(row, "TE")
				case mr.Err != nil:
					row = append(row, "ERR")
				default:
					row = append(row, agg(meas.get(mr.Quality)))
				}
			}
			t.Rows = append(t.Rows, row)
		}
	}
	// Per-method averages over tasks (the paper's Averages block).
	for _, meas := range measures {
		row := []string{"Averages", meas.name}
		for _, m := range methodsSeen {
			var vals []float64
			for _, r2 := range r.Rows {
				if r2.Method == m && r2.Err == nil {
					vals = append(vals, meas.get(r2.Quality).Mean)
				}
			}
			row = append(row, agg(eval.AggregateOf(vals)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// RuntimeTable renders the Table 3 layout.
func (r *Table2Result) RuntimeTable() *Table {
	methodsSeen := orderedMethods(r.Rows)
	t := &Table{
		Caption: "Table 3: runtimes per task (mean seconds per classifier run)",
		Header:  append([]string{"Source -> Target", "|X_S|", "|X_T|"}, methodsSeen...),
	}
	byTask := map[string]map[string]MethodRow{}
	var taskOrder []string
	for _, row := range r.Rows {
		if byTask[row.Task] == nil {
			byTask[row.Task] = map[string]MethodRow{}
			taskOrder = append(taskOrder, row.Task)
		}
		byTask[row.Task][row.Method] = row
	}
	for _, task := range taskOrder {
		sz := r.Sizes[task]
		row := []string{task, fmt.Sprintf("%d", sz[0]), fmt.Sprintf("%d", sz[1])}
		for _, m := range methodsSeen {
			mr, ok := byTask[task][m]
			switch {
			case !ok:
				row = append(row, "-")
			case errors.Is(mr.Err, ErrResourceLimit):
				row = append(row, "TE")
			case mr.Err != nil:
				row = append(row, "ERR")
			default:
				row = append(row, fmt.Sprintf("%.2f", mr.Runtime.Seconds()))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// orderedMethods returns method names in first-appearance order.
func orderedMethods(rows []MethodRow) []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range rows {
		if !seen[r.Method] {
			seen[r.Method] = true
			out = append(out, r.Method)
		}
	}
	return out
}
