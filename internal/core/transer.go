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
	return p.fit(factory, sp, nil)
}

// fit is Fit on a partially labelled target: known target labels
// (nil for none) replace their rows' pseudo labels in the TCL training
// set and override the final prediction on those rows.
func (p *Prepared) fit(factory ml.Factory, sp *obs.Span, known TargetLabels) (*Result, error) {
	res, err := p.gen(factory, sp)
	if err != nil {
		return nil, err
	}
	if err := p.tcl(res, factory, sp, known); err != nil {
		return nil, err
	}
	anchor(res, known)
	return res, nil
}

// gen runs phase (ii), the pseudo label generator (lines 10-11). Its
// result carries the pseudo labels, and GEN's probabilities and
// classifier, which stand as the answer when TCL does not train.
func (p *Prepared) gen(factory ml.Factory, sp *obs.Span) (*Result, error) {
	if factory == nil {
		return nil, errors.New("core: nil classifier factory")
	}
	res := &Result{Stats: p.stats}
	sp.SetInt("source_instances", int64(res.Stats.SourceInstances))
	sp.SetInt("target_instances", int64(res.Stats.TargetInstances))

	genSpan := sp.Child("gen")
	genStart := time.Now()
	fitSpan := genSpan.Child("fit")
	cu, err := ml.FitWithFallback(factory, p.xu, p.yu)
	fitSpan.End()
	if err != nil {
		return nil, fmt.Errorf("core: GEN training failed: %w", err)
	}
	predictSpan := genSpan.Child("predict")
	proba := ml.ParallelProba(cu, p.xt, p.cfg.Workers)
	predictSpan.End()
	res.PseudoLabels = ml.Labels(proba, 0.5)
	res.PseudoConfidence = make([]float64, len(proba))
	for i, pr := range proba {
		res.PseudoConfidence[i] = ml.Confidence(pr)
	}
	res.Proba = proba
	res.Classifier = cu
	res.Stats.GenTime = time.Since(genStart)
	genSpan.SetInt("pseudo_labels", int64(len(res.PseudoLabels)))
	genSpan.End()
	return res, nil
}

// tcl runs phase (iii), the target domain classifier (lines 12-20),
// on GEN's result: high-confidence pseudo labels and the known labels
// train it. GEN's answer stands under the ablation "without GEN & TCL"
// (DisableGENTCL) and when that training set is unusable.
func (p *Prepared) tcl(res *Result, factory ml.Factory, sp *obs.Span, known TargetLabels) error {
	cfg, xt := p.cfg, p.xt
	if cfg.DisableGENTCL {
		res.Labels = ml.Labels(res.Proba, 0.5)
		return nil
	}
	tclSpan := sp.Child("tcl")
	tclStart := time.Now()
	var xv [][]float64
	var yv []int
	for i, z := range res.PseudoConfidence {
		if l, ok := known[i]; ok {
			xv = append(xv, xt[i])
			yv = append(yv, l)
		} else if z >= cfg.TP {
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
		res.Labels = ml.Labels(res.Proba, 0.5)
		res.Stats.TCLFallback = true
		res.Stats.TclTime = time.Since(tclStart)
		tclSpan.SetBool("fallback", true)
		tclSpan.End()
		return nil
	}

	res.Stats.BalancedTrain = len(xvb)
	tclSpan.SetInt("balanced_train", int64(len(xvb)))
	fitSpan := tclSpan.Child("fit")
	cv, err := ml.FitWithFallback(factory, xvb, yvb)
	fitSpan.End()
	if err != nil {
		return fmt.Errorf("core: TCL training failed: %w", err)
	}
	predictSpan := tclSpan.Child("predict")
	res.Proba = ml.ParallelProba(cv, xt, cfg.Workers)
	predictSpan.End()
	res.Labels = ml.Labels(res.Proba, 0.5)
	res.Classifier = cv
	res.Stats.TclTime = time.Since(tclStart)
	tclSpan.End()
	return nil
}

// anchor overrides the prediction with the known labels on their own
// rows.
func anchor(res *Result, known TargetLabels) {
	for idx, l := range known {
		res.Labels[idx] = l
		res.Proba[idx] = 0
		if l == 1 {
			res.Proba[idx] = 1
		}
	}
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
