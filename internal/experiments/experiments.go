// Package experiments regenerates every table and figure of the
// paper's evaluation section (Section 5) on the synthetic data set
// stand-ins. Each experiment returns a structured result and can
// render itself as text; cmd/experiments and the repository-level
// benchmarks are thin wrappers around this package.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"transer/internal/core"
	"transer/internal/eval"
	"transer/internal/ml"
	"transer/internal/ml/forest"
	"transer/internal/ml/logreg"
	"transer/internal/ml/svm"
	"transer/internal/ml/tree"
	"transer/internal/obs"
	"transer/internal/pipeline"
	"transer/internal/sampling"
	"transer/internal/transfer"
)

// Options configures an experiment run.
type Options struct {
	// Scale multiplies data set sizes; 0 means 0.5 (the laptop-scale
	// default whose local densities support the paper's default
	// thresholds; see DESIGN.md).
	Scale float64
	// Seed drives all stochastic components.
	Seed int64
	// Classifiers is the set quality results are averaged over; nil
	// means the paper's four (SVM, RF, LR, DT).
	Classifiers []ml.Named
	// SkipSlow drops the slowest baselines (DTAL*) from large tasks,
	// mirroring the paper's 'TE' entries without burning hours.
	SkipSlow bool
	// Workers bounds the goroutines used for feature-matrix
	// construction and for fanning out independent experiment grid
	// cells; 0 means one per CPU, 1 forces serial execution. Every
	// deterministic output (all quality numbers, counts, and rendered
	// tables except wall-clock columns) is byte-identical for every
	// worker count: cells write to pre-sized index-addressed slots and
	// all randomness is seeded per cell, never shared.
	Workers int
	// Store memoizes whole built domains (generated data, candidate
	// pairs, feature matrix, labels). Sharing one store across
	// experiments builds each distinct domain exactly once for the
	// whole run; nil gives each experiment call its own store. Cached
	// domains are byte-identical to rebuilt ones, so results
	// never depend on the store's temperature or hit order.
	Store *pipeline.Store
	// Obs, when non-nil, records hierarchical spans (experiment →
	// grid cell → classifier → TransER phase) and metrics for the run.
	// Instrumentation is purely observational: every rendered byte is
	// identical with Obs set or nil, and the nil path costs nothing.
	Obs *obs.Tracer

	// span is the experiment-level span cell spans attach to, set by
	// RunExperiment; direct experiment calls fall back to the tracer
	// root.
	span *obs.Span
}

// store resolves the domain store an experiment call uses.
func (o Options) store() *pipeline.Store {
	if o.Store != nil {
		return o.Store
	}
	st := pipeline.NewStore()
	st.Instrument(o.Obs)
	return st
}

// parentSpan resolves the span grid cells nest under.
func (o Options) parentSpan() *obs.Span {
	if o.span != nil {
		return o.span
	}
	return o.Obs.Root()
}

func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 0.5
	}
	if o.Classifiers == nil {
		o.Classifiers = StandardClassifiers(o.Seed + 1)
	}
	return o
}

// StandardClassifiers mirrors the paper's classifier set.
func StandardClassifiers(seed int64) []ml.Named {
	return []ml.Named{
		{Name: "svm", New: svm.Factory(svm.Config{Seed: seed})},
		{Name: "rf", New: forest.Factory(forest.Config{Seed: seed})},
		{Name: "logreg", New: logreg.Factory(logreg.Config{})},
		{Name: "dtree", New: tree.Factory(tree.Config{Seed: seed})},
	}
}

// builtTask is a blocked+compared transfer task with ground truth.
type builtTask struct {
	name   string
	task   *transfer.Task
	truthT []int
}

// buildTask assembles the transfer.Task for one task ref, fetching
// both domains through the domain store. Source and target domains
// are shared and read-only: the same dataset may back several
// tasks (and both roles) without being rebuilt.
func buildTask(st *pipeline.Store, ref pipeline.TaskRef, opts Options) builtTask {
	src := buildDomain(st, ref.Source, opts)
	tgt := buildDomain(st, ref.Target, opts)
	return taskOf(ref.Name(), src, tgt)
}

// taskOf wires two built domains into a transfer task.
func taskOf(name string, src, tgt *pipeline.Domain) builtTask {
	return builtTask{
		name: name,
		task: &transfer.Task{
			XS: src.X, YS: src.Y, XT: tgt.X,
			SourceA: src.A, SourceB: src.B,
			TargetA: tgt.A, TargetB: tgt.B,
			SourcePairs: src.Pairs, TargetPairs: tgt.Pairs,
		},
		truthT: tgt.Y,
	}
}

// Rendering helpers ---------------------------------------------------------

// Table is a generic text table with a caption.
type Table struct {
	Caption string
	Header  []string
	Rows    [][]string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	fmt.Fprintf(w, "%s\n", t.Caption)
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
func agg(a eval.Aggregate) string {
	return fmt.Sprintf("%.2f ± %.2f", a.Mean, a.Std)
}

// MethodEvaluation is one method's linkage quality and cost on one
// task over a classifier set.
type MethodEvaluation struct {
	// Method is the method display name.
	Method string
	// PerClassifier holds one Metrics per classifier, in order.
	PerClassifier []eval.Metrics
	// Aggregate is mean ± std over PerClassifier, the format of the
	// paper's Table 2.
	Aggregate eval.MetricsAggregate
	// Runtime is the cost of one classifier run as Table 3 reports it:
	// the prepare time plus the mean fit time. Every run needs the
	// prepared state, so each is charged for it in full.
	Runtime time.Duration
}

// EvaluateMethod prepares one method on the task once, then fits it
// once per classifier and scores every fit against the target truth —
// the paper's Table 2 protocol. Under the given span (nil when tracing
// is off) the preparation records a prepare span and each fit a
// classifier:<name> span, with the method's own stage spans beneath
// them.
func EvaluateMethod(m transfer.Method, task *transfer.Task, truth []int, classifiers []ml.Named, sp *obs.Span) (MethodEvaluation, error) {
	out := MethodEvaluation{Method: m.Name()}
	start := time.Now()
	ps := sp.Child("prepare")
	p, err := m.Prepare(task, ps)
	ps.End()
	if err != nil {
		return out, fmt.Errorf("%s: %w", m.Name(), err)
	}
	prepare := time.Since(start)
	for _, c := range classifiers {
		cs := sp.Child("classifier:" + c.Name)
		res, err := p.Fit(c.New, cs)
		cs.End()
		if err != nil {
			return out, fmt.Errorf("%s with %s: %w", m.Name(), c.Name, err)
		}
		out.PerClassifier = append(out.PerClassifier, eval.Evaluate(res.Labels, truth))
	}
	out.Runtime = prepare
	if len(classifiers) > 0 {
		out.Runtime += (time.Since(start) - prepare) / time.Duration(len(classifiers))
	}
	out.Aggregate = eval.AggregateMetrics(out.PerClassifier)
	return out, nil
}

// sortedKeys returns map keys in sorted order for deterministic output.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// transERMethod builds the TransER method with the given config.
func transERMethod(cfg core.Config) transfer.Method {
	return transfer.TransER{Config: cfg}
}

// labelFractionTask subsets the source labels of a task, implementing
// the Figure 6 protocol (only a fraction of the source is labelled).
func labelFractionTask(bt builtTask, frac float64, seed int64) builtTask {
	xs, ys := sampling.StratifiedFraction(bt.task.XS, bt.task.YS, frac, seed)
	cp := *bt.task
	cp.XS = xs
	cp.YS = ys
	// The raw source pair list no longer aligns with XS after
	// subsetting; methods that need it (DR) are not used in Figure 6.
	cp.SourcePairs = nil
	cp.SourceA, cp.SourceB = nil, nil
	out := bt
	out.task = &cp
	return out
}
