package transfer

import (
	"transer/internal/core"
	"transer/internal/ml"
	"transer/internal/obs"
)

// TransER adapts the core TransER framework to the Method interface so
// the experiment harness can run it alongside the baselines. The zero
// value uses the paper's default configuration.
type TransER struct {
	// Config holds TransER parameters; a zero Config is replaced by
	// core.DefaultConfig(). Run records its phase spans under
	// Config.Obs.
	Config core.Config
}

// Name implements Method.
func (TransER) Name() string { return "TransER" }

// Prepare implements Method: the SEL phase, in a sel span under sp.
func (c TransER) Prepare(t *Task, sp *obs.Span) (Prepared, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	cfg := c.Config
	// The zero-value check must ignore the observability handle: a
	// Config carrying only a span still means "use the paper defaults".
	cfg.Obs = nil
	if cfg == (core.Config{}) {
		cfg = core.DefaultConfig()
	}
	cfg.Obs = sp
	p, err := core.Prepare(t.XS, t.YS, t.XT, cfg)
	if err != nil {
		return nil, err
	}
	return transERPrepared{p}, nil
}

// Run implements Method.
func (c TransER) Run(t *Task, factory ml.Factory) (*Result, error) {
	return run(c, t, factory, c.Config.Obs)
}

// transERPrepared runs TransER's GEN and TCL phases per fit.
type transERPrepared struct{ p *core.Prepared }

// Fit implements Prepared.
func (p transERPrepared) Fit(factory ml.Factory, sp *obs.Span) (*Result, error) {
	res, err := p.p.Fit(factory, sp)
	if err != nil {
		return nil, err
	}
	return &Result{Labels: res.Labels, Proba: res.Proba, Classifier: res.Classifier}, nil
}
