package core

import (
	"errors"
	"fmt"
	"time"

	"transer/internal/ml"
	"transer/internal/obs"
	"transer/internal/sampling"
)

// Run executes TransER on one source→target task.
//
// Inputs are the source feature matrix xs with labels ys, the target
// feature matrix xt, a classifier factory (fresh instances are trained
// in the GEN and TCL phases), and the configuration. It returns the
// final target labels with probabilities and per-phase statistics.
// Run is Prepare followed by one Fit, both recording under cfg.Obs.
func Run(xs [][]float64, ys []int, xt [][]float64, factory ml.Factory, cfg Config) (*Result, error) {
	p, err := Prepare(xs, ys, xt, cfg)
	if err != nil {
		return nil, err
	}
	return p.Fit(factory, cfg.Obs)
}

// Prepared is TransER's classifier-independent state for one task: the
// validated configuration and inputs, and the instances X^U, Y^U the
// SEL phase transferred. It is read-only after Prepare, so any number
// of Fit calls may share it, concurrently.
type Prepared struct {
	cfg    Config
	xt, xu [][]float64
	yu     []int
	// stats holds the input sizes and the SEL-phase fields every Fit
	// reports.
	stats Stats
}

// Prepare validates the task and runs the SEL phase (lines 1-9 of
// Algorithm 1), which does not depend on the classifier. Its sel span
// nests under cfg.Obs.
func Prepare(xs [][]float64, ys []int, xt [][]float64, cfg Config) (*Prepared, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(xs) == 0 {
		return nil, errors.New("core: empty source feature matrix")
	}
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("core: %d source rows but %d labels", len(xs), len(ys))
	}
	if len(xt) == 0 {
		return nil, errors.New("core: empty target feature matrix")
	}
	m := len(xs[0])
	for i, row := range xt {
		if len(row) != m {
			return nil, fmt.Errorf("core: target row %d has %d features, source has %d (feature spaces must be homogeneous)", i, len(row), m)
		}
	}

	p := &Prepared{cfg: cfg, xt: xt, stats: Stats{
		SourceInstances: len(xs),
		TargetInstances: len(xt),
	}}
	// The selector records its sel_dedup/sel_build/sel_query
	// sub-phases, which must nest under the sel span, so it runs with
	// a config whose Obs handle is the sel span itself.
	selSpan := cfg.Obs.Child("sel")
	selStart := time.Now()
	selCfg := cfg
	selCfg.Obs = selSpan
	selected := SelectInstances(xs, ys, xt, selCfg)
	if len(selected) == 0 || singleClass(ys, selected) {
		// Degenerate selection: fall back to the full source so a
		// classifier can still be trained. The paper's data never
		// triggers this; extreme thresholds (t_c = t_l = 1.0) can.
		selected = selected[:0]
		for i := range xs {
			selected = append(selected, i)
		}
		p.stats.SelectedFallback = true
	}
	p.xu = make([][]float64, len(selected))
	p.yu = make([]int, len(selected))
	for i, idx := range selected {
		p.xu[i] = xs[idx]
		p.yu[i] = ys[idx]
	}
	p.stats.Selected = len(p.xu)
	p.stats.SelTime = time.Since(selStart)
	selSpan.SetInt("selected", int64(p.stats.Selected))
	selSpan.SetBool("fallback", p.stats.SelectedFallback)
	selSpan.End()
	return p, nil
}

// Fit runs the GEN and TCL phases (lines 10-20 of Algorithm 1) with
// fresh classifiers from factory, recording their spans under sp.
// The result's Stats carry the shared SEL-phase figures.
func (p *Prepared) Fit(factory ml.Factory, sp *obs.Span) (*Result, error) {
	if factory == nil {
		return nil, errors.New("core: nil classifier factory")
	}
	cfg, xt := p.cfg, p.xt
	res := &Result{Stats: p.stats}
	sp.SetInt("source_instances", int64(res.Stats.SourceInstances))
	sp.SetInt("target_instances", int64(res.Stats.TargetInstances))

	// Phase (ii): pseudo label generator — lines 10-11.
	genSpan := sp.Child("gen")
	genStart := time.Now()
	fitSpan := genSpan.Child("fit")
	cu, err := ml.FitWithFallback(factory, p.xu, p.yu)
	fitSpan.End()
	if err != nil {
		return nil, fmt.Errorf("core: GEN training failed: %w", err)
	}
	predictSpan := genSpan.Child("predict")
	proba := ml.ParallelProba(cu, xt, cfg.Workers)
	predictSpan.End()
	res.PseudoLabels = ml.Labels(proba, 0.5)
	res.PseudoConfidence = make([]float64, len(proba))
	for i, pr := range proba {
		res.PseudoConfidence[i] = ml.Confidence(pr)
	}
	res.Stats.GenTime = time.Since(genStart)
	genSpan.SetInt("pseudo_labels", int64(len(res.PseudoLabels)))
	genSpan.End()

	if cfg.DisableGENTCL {
		// Ablation "without GEN & TCL": classify the target directly
		// with the classifier trained on the transferred instances.
		res.Labels = ml.Labels(proba, 0.5)
		res.Proba = proba
		res.Classifier = cu
		return res, nil
	}

	// Phase (iii): target domain classifier — lines 12-20.
	tclSpan := sp.Child("tcl")
	tclStart := time.Now()
	var xv [][]float64
	var yv []int
	for i, z := range res.PseudoConfidence {
		if z >= cfg.TP {
			xv = append(xv, xt[i])
			yv = append(yv, res.PseudoLabels[i])
		}
	}
	res.Stats.HighConfidence = len(xv)
	tclSpan.SetInt("pseudo_kept", int64(len(xv)))

	// A usable TCL training set needs both classes and enough rows for
	// the classifier to generalise; otherwise GEN's predictions are the
	// better answer.
	const minTCLTrain = 20
	xvb, yvb := sampling.UnderSample(xv, yv, cfg.B, cfg.Seed)
	if len(xvb) < minTCLTrain || allSame(yvb) {
		// No usable pseudo-labelled training set: return GEN's
		// predictions directly rather than failing the task.
		res.Labels = ml.Labels(proba, 0.5)
		res.Proba = proba
		res.Classifier = cu
		res.Stats.TCLFallback = true
		res.Stats.TclTime = time.Since(tclStart)
		tclSpan.SetBool("fallback", true)
		tclSpan.End()
		return res, nil
	}

	res.Stats.BalancedTrain = len(xvb)
	tclSpan.SetInt("balanced_train", int64(len(xvb)))
	fitSpan = tclSpan.Child("fit")
	cv, err := ml.FitWithFallback(factory, xvb, yvb)
	fitSpan.End()
	if err != nil {
		return nil, fmt.Errorf("core: TCL training failed: %w", err)
	}
	predictSpan = tclSpan.Child("predict")
	finalProba := ml.ParallelProba(cv, xt, cfg.Workers)
	predictSpan.End()
	res.Labels = ml.Labels(finalProba, 0.5)
	res.Proba = finalProba
	res.Classifier = cv
	res.Stats.TclTime = time.Since(tclStart)
	tclSpan.End()
	return res, nil
}

func singleClass(ys []int, idx []int) bool {
	if len(idx) == 0 {
		return true
	}
	first := ys[idx[0]]
	for _, i := range idx[1:] {
		if ys[i] != first {
			return false
		}
	}
	return true
}

func allSame(y []int) bool {
	if len(y) == 0 {
		return true
	}
	for _, v := range y[1:] {
		if v != y[0] {
			return false
		}
	}
	return true
}
