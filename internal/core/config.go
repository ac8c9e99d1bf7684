// Package core implements TransER (Algorithm 1 of the paper):
// instance selection (SEL), pseudo label generation (GEN), and target
// domain classification (TCL). It consumes only the source feature
// matrix X^S with labels Y^S and the target feature matrix X^T, so it
// applies to any homogeneous-feature-space ER problem regardless of
// how blocking and comparison were performed.
package core

import (
	"fmt"
	"time"

	"transer/internal/ml"
	"transer/internal/obs"
)

// Config holds TransER's hyper-parameters and ablation switches. The
// defaults are the paper's Section 5.1 settings.
type Config struct {
	// K is the neighbourhood size for the local source and target
	// distributions (paper default 7).
	K int
	// TC is the instance confidence similarity threshold t_c
	// (paper default 0.9).
	TC float64
	// TL is the instance structural similarity threshold t_l
	// (paper default 0.9).
	TL float64
	// TP is the pseudo label confidence threshold t_p. The paper's
	// default is 0.99 with scikit-learn's heavily saturated
	// probability outputs; re-running the paper's Section 5.3
	// sensitivity protocol against this repository's better-calibrated
	// classifiers selects 0.90 (see EXPERIMENTS.md), which is the
	// default here.
	TP float64
	// B is the class imbalance ratio b: non-matches per match kept by
	// the TCL under-sampling (paper default 3, i.e. 1:3).
	B float64
	// Seed drives the under-sampling and any stochastic classifier
	// the caller supplies.
	Seed int64
	// Workers bounds the goroutines used by the SEL phase and by GEN/
	// TCL batch prediction; 0 means one per CPU, 1 forces serial
	// execution. Results are identical for every worker count.
	Workers int

	// Obs, when non-nil, is the parent span under which Run records
	// its SEL/GEN/TCL phase spans (with classifier fit/predict
	// children) and selection/pseudo-label statistics. Purely
	// observational: results are bitwise identical with or without it.
	Obs *obs.Span

	// Ablation switches (paper Table 4). All false by default.

	// DisableSEL transfers every source instance unfiltered
	// ("without SEL").
	DisableSEL bool
	// DisableGENTCL classifies the target directly with the
	// classifier trained on the selected source instances
	// ("without GEN & TCL").
	DisableGENTCL bool
	// DisableSimC drops the confidence similarity filter from SEL
	// ("without sim_c").
	DisableSimC bool
	// DisableSimL drops the structural similarity filter from SEL
	// ("without sim_l").
	DisableSimL bool
	// EnableSimV adds LocIT's covariance similarity as a third SEL
	// filter ("TransER + sim_v").
	EnableSimV bool
	// TV is the covariance similarity threshold used when EnableSimV
	// is set; 0 means 0.9.
	TV float64
}

// DefaultConfig returns the default parameters: k=7, t_c=0.9,
// t_l=0.9, t_p=0.90 (see Config.TP for why this differs from the
// paper's 0.99), b=3.
func DefaultConfig() Config {
	return Config{K: 7, TC: 0.9, TL: 0.9, TP: 0.90, B: 3}
}

func (c Config) withDefaults() Config {
	if c.K == 0 {
		c.K = 7
	}
	if c.TV == 0 {
		c.TV = 0.9
	}
	return c
}

// Validate rejects out-of-range parameters.
func (c Config) Validate() error {
	if c.K < 1 {
		return fmt.Errorf("core: K must be >= 1, got %d", c.K)
	}
	for _, p := range []struct {
		name string
		v    float64
	}{{"TC", c.TC}, {"TL", c.TL}, {"TP", c.TP}} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("core: %s must be in [0,1], got %v", p.name, p.v)
		}
	}
	if c.B < 0 {
		return fmt.Errorf("core: B must be >= 0, got %v", c.B)
	}
	return nil
}

// Stats reports what each phase did — selection counts and wall-clock
// per phase (the paper's Table 3 timings decompose this way).
type Stats struct {
	// SourceInstances and TargetInstances are the input sizes.
	SourceInstances, TargetInstances int
	// Selected is |X^U|, the transferred source instances.
	Selected int
	// SelectedFallback is true when SEL filtered out everything and
	// the full source was used instead.
	SelectedFallback bool
	// HighConfidence is |X^V|, the target instances whose pseudo label
	// confidence reached t_p.
	HighConfidence int
	// BalancedTrain is |X^V_b| after under-sampling.
	BalancedTrain int
	// TCLFallback is true when no usable pseudo-labelled training set
	// existed and the GEN predictions were returned directly.
	TCLFallback bool
	// Phase timings.
	SelTime, GenTime, TclTime time.Duration
}

// Result is the output of a TransER run on one source→target task.
type Result struct {
	// Labels are the final target labels Y^T (1 = match).
	Labels []int
	// Proba are the final classifier's match probabilities on X^T.
	Proba []float64
	// PseudoLabels and PseudoConfidence are GEN's intermediate
	// outputs (Y^P and Z^P), retained for diagnostics and ablations.
	PseudoLabels []int
	// PseudoConfidence holds the confidence of each pseudo label.
	PseudoConfidence []float64
	// Classifier is the trained classifier that produced Proba: the
	// TCL-phase target classifier on the normal path, or the GEN-phase
	// classifier when TCL was skipped (TCLFallback, DisableGENTCL).
	// Invariant: Proba equals Classifier.PredictProba on the target
	// matrix, so persisting it (internal/model) preserves the run's
	// decisions exactly.
	Classifier ml.Classifier
	// Stats describes the run.
	Stats Stats
}
