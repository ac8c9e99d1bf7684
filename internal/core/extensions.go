package core

import (
	"errors"
	"fmt"
	"sort"

	"transer/internal/ml"
)

// This file implements two of the extensions the paper lists as future
// work (Section 6): exploiting partially labelled target domains, and
// integrating active learning. Both are one Prepare (the SEL phase)
// followed by the GEN and TCL phases of Fit, with the known target
// labels folded into TCL. The third, choosing the best source domain,
// is signature search over internal/repo, in the root package.

// TargetLabels maps target instance indices to known true labels —
// the partially labelled target scenario of the paper's future work.
type TargetLabels map[int]int

// RunSemiSupervised runs TransER with a partially labelled target:
// known target labels are injected into the TCL training set with
// full confidence (replacing their pseudo labels), so the final
// classifier is anchored by ground truth where it exists while still
// generalising from pseudo labels elsewhere. Known labels also
// override the final prediction on their own instances.
func RunSemiSupervised(xs [][]float64, ys []int, xt [][]float64, known TargetLabels, factory ml.Factory, cfg Config) (*Result, error) {
	for idx, l := range known {
		if idx < 0 || idx >= len(xt) {
			return nil, fmt.Errorf("core: known target index %d out of range", idx)
		}
		if l != 0 && l != 1 {
			return nil, fmt.Errorf("core: known target label %d at %d is not binary", l, idx)
		}
	}
	p, err := Prepare(xs, ys, xt, cfg)
	if err != nil {
		return nil, err
	}
	return p.fit(factory, cfg.Obs, known)
}

// Oracle answers label queries for target instances (1 = match). In
// experiments it is backed by ground truth; in production it is a
// human annotator.
type Oracle func(targetIndex int) int

// ActiveResult is the outcome of an active learning run.
type ActiveResult struct {
	*Result
	// Queried lists the target indices sent to the oracle, in order.
	Queried []int
}

// RunActive integrates TransER with uncertainty-sampling active
// learning (the paper's fourth future-work direction): the budget
// least-confident target instances under GEN's pseudo labels are sent
// to the oracle, most uncertain first (ties by index), and their
// answers anchor TCL as in RunSemiSupervised. GEN trains on the source
// alone, so its confidences, and hence the queries, do not depend on
// the oracle's answers: one round asks everything a multi-round loop
// would. budget caps the number of oracle queries.
func RunActive(xs [][]float64, ys []int, xt [][]float64, factory ml.Factory, cfg Config, oracle Oracle, budget int) (*ActiveResult, error) {
	if oracle == nil {
		return nil, errors.New("core: nil oracle")
	}
	if budget <= 0 {
		return nil, errors.New("core: non-positive query budget")
	}
	p, err := Prepare(xs, ys, xt, cfg)
	if err != nil {
		return nil, err
	}
	res, err := p.gen(factory, cfg.Obs)
	if err != nil {
		return nil, err
	}
	queried := make([]int, len(xt))
	for i := range queried {
		queried[i] = i
	}
	z := res.PseudoConfidence
	sort.SliceStable(queried, func(a, b int) bool { return z[queried[a]] < z[queried[b]] })
	if budget < len(queried) {
		queried = queried[:budget]
	}
	known := make(TargetLabels, len(queried))
	for _, i := range queried {
		known[i] = oracle(i)
	}
	if err := p.tcl(res, factory, cfg.Obs, known); err != nil {
		return nil, err
	}
	anchor(res, known)
	return &ActiveResult{Result: res, Queried: queried}, nil
}
