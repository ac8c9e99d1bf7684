package transfer

import (
	"transer/internal/ml"
	"transer/internal/ml/nn"
	"transer/internal/obs"
)

// DTAL implements the DTAL* baseline: the deep transfer component of
// Kasai et al. (2019) without the active-learning loop — a
// domain-adversarial neural network whose gradient reversal layer
// aligns source and target feature distributions while a label head
// learns the match decision from source labels.
//
// The original DTAL encodes raw attribute text with recurrent
// networks; this reproduction keeps its transfer mechanism (the
// adversarial alignment) but feeds it the same similarity feature
// vectors every other method consumes, since the claim under test is
// about the transfer behaviour on structured data, not the text
// encoder (see DESIGN.md Section 3). The supplied ER classifier
// factory is ignored: DTAL* carries its own model.
type DTAL struct {
	// Epochs of adversarial training; 0 means 60.
	Epochs int
	// Seed drives the network initialisation and sampling.
	Seed int64
}

// Name implements Method.
func (DTAL) Name() string { return "DTAL*" }

// Prepare implements Method. DTAL* carries its own model, so all of
// its work — the adversarial training and the target predictions — is
// classifier-independent and happens here, in stage spans train and
// predict under sp.
func (c DTAL) Prepare(t *Task, sp *obs.Span) (Prepared, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	stage := sp.Child("train")
	d := nn.NewDANN(nn.DANNConfig{Epochs: c.Epochs, Seed: c.Seed})
	err := d.FitDomains(t.XS, t.YS, t.XT)
	stage.End()
	if err != nil {
		return nil, err
	}
	stage = sp.Child("predict")
	defer stage.End()
	return dtalPrepared(d.PredictProba(t.XT)), nil
}

// Run implements Method.
func (c DTAL) Run(t *Task, factory ml.Factory) (*Result, error) {
	return run(c, t, factory, nil)
}

// dtalPrepared holds DTAL*'s target probabilities; every fit returns
// them, whatever the factory.
type dtalPrepared []float64

// Fit implements Prepared.
func (p dtalPrepared) Fit(ml.Factory, *obs.Span) (*Result, error) {
	return resultFromProba(append([]float64(nil), p...)), nil
}
