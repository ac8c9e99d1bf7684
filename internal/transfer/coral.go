package transfer

import (
	"transer/internal/linalg"
	"transer/internal/ml"
	"transer/internal/obs"
)

// Coral implements CORrelation ALignment (Sun, Feng, Saenko 2016):
// whiten the source features with C_S^{-1/2}, re-colour with C_T^{1/2},
// then train the classifier on the aligned source and apply it to the
// target. Like the original, it aligns second-order statistics only,
// which the paper shows is insufficient for ER's bi-modal, non-normal
// feature distributions.
type Coral struct{}

// coralRidge regularises the covariance estimates: the standard CORAL
// "+ I" regularisation.
const coralRidge = 1.0

// Name implements Method.
func (Coral) Name() string { return "Coral" }

// Prepare implements Method: the alignment matrix and the aligned
// source rows.
func (c Coral) Prepare(t *Task, _ *obs.Span) (Prepared, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	xs := linalg.FromRows(t.XS)
	xt := linalg.FromRows(t.XT)
	covS := linalg.Covariance(xs, coralRidge)
	covT := linalg.Covariance(xt, coralRidge)
	// A = C_S^{-1/2} * C_T^{1/2}; aligned source = X_S * A.
	whiten := linalg.SymPow(covS, -0.5, 1e-9)
	colour := linalg.SymPow(covT, 0.5, 1e-9)
	align := whiten.Mul(colour)
	alignedRows := xs.Mul(align)
	aligned := make([][]float64, alignedRows.Rows)
	for i := range aligned {
		aligned[i] = alignedRows.Row(i)
	}
	return trainingSet{x: aligned, y: t.YS, xt: t.XT}, nil
}

// Run implements Method.
func (c Coral) Run(t *Task, factory ml.Factory) (*Result, error) {
	return run(c, t, factory, nil)
}
