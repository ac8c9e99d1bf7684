package transfer

import (
	"transer/internal/ml"
	"transer/internal/obs"
)

// Naive trains the supplied classifier on the full labelled source and
// applies it unchanged to the target — no transfer learning. It is the
// Magellan/Tamer-style baseline of the paper.
type Naive struct{}

// Name implements Method.
func (Naive) Name() string { return "Naive" }

// Prepare implements Method: the training set is the source as is.
func (Naive) Prepare(t *Task, _ *obs.Span) (Prepared, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return trainingSet{x: t.XS, y: t.YS, xt: t.XT}, nil
}

// Run implements Method.
func (c Naive) Run(t *Task, factory ml.Factory) (*Result, error) {
	return run(c, t, factory, nil)
}
