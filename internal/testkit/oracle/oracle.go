// Package oracle is testkit's differential oracle: it cross-checks
// TransER (internal/core) and every transfer baseline
// (internal/transfer) on shared generated domains against reference
// invariants that hold for any correct implementation — output sizes,
// probability bounds, label/probability consistency at the 0.5
// decision threshold, determinism under repeated runs, bookkeeping
// consistency of TransER's per-phase statistics, and monotonicity of
// selection and pseudo-labelling under threshold sweeps.
//
// It lives below testkit (which stays stdlib-only) because it imports
// the model packages; suites use it from external test packages.
package oracle

import (
	"math"
	"math/rand"

	"transer/internal/core"
	"transer/internal/ml"
	"transer/internal/testkit"
	"transer/internal/transfer"
)

// TB is the minimal failure-reporting surface the oracle needs; both
// *testing.T and *testkit.T satisfy it.
type TB interface {
	Errorf(format string, args ...interface{})
}

// Config draws a random valid TransER configuration: thresholds
// sampled from the ranges the paper sweeps (Figures 6/7), small
// neighbourhoods, and a bounded worker count so properties also
// exercise the parallel paths.
func Config(rng *rand.Rand) core.Config {
	thresholds := []float64{0.5, 0.6, 0.7, 0.8, 0.9}
	return core.Config{
		K:          3 + rng.Intn(6),
		TC:         thresholds[rng.Intn(len(thresholds))],
		TL:         thresholds[rng.Intn(len(thresholds))],
		TP:         thresholds[rng.Intn(len(thresholds))],
		B:          float64(1 + rng.Intn(4)),
		Seed:       rng.Int63(),
		Workers:    1 + rng.Intn(4),
		EnableSimV: rng.Intn(4) == 0,
		TV:         0.7,
	}
}

// Task adapts a generated feature-space domain to the transfer.Task
// every method consumes.
func Task(d testkit.Domain) *transfer.Task {
	return &transfer.Task{XS: d.XS, YS: d.YS, XT: d.XT}
}

// CheckResult asserts the output invariants shared by every transfer
// method: one label and one probability per target row, probabilities
// in [0, 1] and NaN-free, and labels equal to thresholding the
// probabilities at 0.5.
func CheckResult(t TB, name string, res *transfer.Result, nTarget int) {
	if len(res.Labels) != nTarget || len(res.Proba) != nTarget {
		t.Errorf("%s: %d labels / %d probabilities for %d target rows",
			name, len(res.Labels), len(res.Proba), nTarget)
		return
	}
	for i, p := range res.Proba {
		if math.IsNaN(p) || p < 0 || p > 1 {
			t.Errorf("%s: probability %v at row %d outside [0,1]", name, p, i)
			return
		}
		want := 0
		if p >= 0.5 {
			want = 1
		}
		if res.Labels[i] != want {
			t.Errorf("%s: label %d at row %d inconsistent with probability %v at the 0.5 threshold",
				name, res.Labels[i], i, p)
			return
		}
	}
}

// CheckMethod asserts the shared output invariants for every
// classifier, and that the two-stage split is exact: one Prepared,
// fitted with the classifiers in forward order and then in reverse
// order, must reproduce bit for bit what a fresh Run gives for each
// classifier. Seeded methods must be pure functions of (task, factory,
// config), and a Prepared must carry no state from one fit to the next.
func CheckMethod(t TB, m transfer.Method, task *transfer.Task, classifiers []ml.Named) {
	fresh := make([]*transfer.Result, len(classifiers))
	for i, c := range classifiers {
		res, err := m.Run(task, c.New)
		if err != nil {
			t.Errorf("%s with %s: %v", m.Name(), c.Name, err)
			return
		}
		CheckResult(t, m.Name()+" with "+c.Name, res, len(task.XT))
		fresh[i] = res
	}
	p, err := m.Prepare(task, nil)
	if err != nil {
		t.Errorf("%s: prepare: %v", m.Name(), err)
		return
	}
	order := make([]int, 0, 2*len(classifiers))
	for i := range classifiers {
		order = append(order, i)
	}
	for i := len(classifiers) - 1; i >= 0; i-- {
		order = append(order, i)
	}
	for n, i := range order {
		res, err := p.Fit(classifiers[i].New, nil)
		if err != nil {
			t.Errorf("%s: fit %d (%s) of a shared Prepared: %v", m.Name(), n, classifiers[i].Name, err)
			return
		}
		if !SameResult(res, fresh[i]) {
			t.Errorf("%s: fit %d (%s) of a shared Prepared differs from a fresh Run", m.Name(), n, classifiers[i].Name)
			return
		}
	}
}

// SameResult reports whether two results carry bitwise-identical
// labels and probabilities.
func SameResult(a, b *transfer.Result) bool {
	if !testkit.EqualInts(a.Labels, b.Labels) || len(a.Proba) != len(b.Proba) {
		return false
	}
	for i := range a.Proba {
		if math.Float64bits(a.Proba[i]) != math.Float64bits(b.Proba[i]) {
			return false
		}
	}
	return true
}

// CheckTransER runs core.Run and asserts the framework's bookkeeping
// invariants: per-phase statistics consistent with the returned
// vectors, pseudo-label confidences in [0.5, 1], the high-confidence
// count equal to the number of confidences reaching t_p, and the
// selected count consistent with a standalone SEL run when no fallback
// fired. Returns the result for further checks.
func CheckTransER(t TB, d testkit.Domain, factory ml.Factory, cfg core.Config) *core.Result {
	res, err := core.Run(d.XS, d.YS, d.XT, factory, cfg)
	if err != nil {
		t.Errorf("core.Run: %v", err)
		return nil
	}
	st := res.Stats
	if st.SourceInstances != len(d.XS) || st.TargetInstances != len(d.XT) {
		t.Errorf("stats report %d/%d instances, inputs have %d/%d",
			st.SourceInstances, st.TargetInstances, len(d.XS), len(d.XT))
	}
	CheckResult(t, "TransER", &transfer.Result{Labels: res.Labels, Proba: res.Proba}, len(d.XT))
	if len(res.PseudoLabels) != len(d.XT) || len(res.PseudoConfidence) != len(d.XT) {
		t.Errorf("GEN emitted %d pseudo labels / %d confidences for %d target rows",
			len(res.PseudoLabels), len(res.PseudoConfidence), len(d.XT))
		return res
	}
	high := 0
	for i, z := range res.PseudoConfidence {
		if math.IsNaN(z) || z < 0.5 || z > 1 {
			t.Errorf("pseudo confidence %v at row %d outside [0.5, 1]", z, i)
			return res
		}
		if z >= cfg.TP {
			high++
		}
	}
	if !cfg.DisableGENTCL && st.HighConfidence != high {
		t.Errorf("stats report %d high-confidence pseudo labels, confidences >= t_p=%v count %d",
			st.HighConfidence, cfg.TP, high)
	}
	if !cfg.DisableSEL && !st.SelectedFallback {
		if sel := core.SelectInstances(d.XS, d.YS, d.XT, cfg); len(sel) != st.Selected {
			t.Errorf("stats report %d selected instances, standalone SEL selects %d",
				st.Selected, len(sel))
		}
	}
	return res
}

// SelectInstances is the per-instance SEL oracle: it keeps source row
// i iff core.Similarities for row i passes the t_c/t_l (and, with
// +sim_v, t_v) thresholds under cfg's ablation flags, straight from
// the paper's definition with one pointer-tree query per row and no
// deduplication. core.SelectInstances must return exactly this.
func SelectInstances(xs [][]float64, ys []int, xt [][]float64, cfg core.Config) []int {
	keep := make([]int, 0, len(xs))
	if cfg.DisableSEL {
		for i := range xs {
			keep = append(keep, i)
		}
		return keep
	}
	tv := cfg.TV
	if tv == 0 {
		tv = 0.9
	}
	for i, s := range core.Similarities(xs, ys, xt, cfg) {
		if (cfg.DisableSimC || s.SimC >= cfg.TC) &&
			(cfg.DisableSimL || s.SimL >= cfg.TL) &&
			(!cfg.EnableSimV || s.SimV >= tv) {
			keep = append(keep, i)
		}
	}
	return keep
}

// CheckSelectionMonotone asserts that raising the SEL thresholds can
// only shrink the selection: the instances selected under the stricter
// configuration must be a subset of those selected under the looser
// one. (core.SelectInstances applies no fallback, so the monotonicity
// is exact.)
func CheckSelectionMonotone(t TB, d testkit.Domain, loose, strict core.Config) {
	if strict.TC < loose.TC || strict.TL < loose.TL {
		t.Errorf("misuse: strict config has looser thresholds")
		return
	}
	looseSel := core.SelectInstances(d.XS, d.YS, d.XT, loose)
	strictSel := core.SelectInstances(d.XS, d.YS, d.XT, strict)
	in := make(map[int]bool, len(looseSel))
	for _, i := range looseSel {
		in[i] = true
	}
	for _, i := range strictSel {
		if !in[i] {
			t.Errorf("instance %d selected at t_c=%v,t_l=%v but not at t_c=%v,t_l=%v",
				i, strict.TC, strict.TL, loose.TC, loose.TL)
			return
		}
	}
}

// CheckPseudoLabelSweep asserts that the high-confidence pseudo-label
// count is non-increasing as t_p rises: GEN does not depend on t_p, so
// sweeping it re-thresholds one fixed confidence vector.
func CheckPseudoLabelSweep(t TB, d testkit.Domain, factory ml.Factory, cfg core.Config, sweep []float64) {
	prev := -1
	prevTP := 0.0
	for i, tp := range sweep {
		if i > 0 && tp < prevTP {
			t.Errorf("misuse: sweep must be non-decreasing")
			return
		}
		c := cfg
		c.TP = tp
		res, err := core.Run(d.XS, d.YS, d.XT, factory, c)
		if err != nil {
			t.Errorf("core.Run at t_p=%v: %v", tp, err)
			return
		}
		if prev >= 0 && res.Stats.HighConfidence > prev {
			t.Errorf("high-confidence count rose from %d to %d as t_p rose from %v to %v",
				prev, res.Stats.HighConfidence, prevTP, tp)
			return
		}
		prev, prevTP = res.Stats.HighConfidence, tp
	}
}

// Methods returns every transfer method that runs on a feature-space
// task (DR needs raw databases), configured small enough for property
// trials: bounded landmarks, short adversarial training.
func Methods(seed int64) []transfer.Method {
	return []transfer.Method{
		transfer.TransER{},
		transfer.Naive{},
		transfer.Coral{},
		transfer.TCA{MaxLandmarks: 40, Seed: seed},
		transfer.LocIT{MaxTrainPoints: 80, Seed: seed},
		transfer.DTAL{Epochs: 6, Hidden: 6, Seed: seed},
	}
}
