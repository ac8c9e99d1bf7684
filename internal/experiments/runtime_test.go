package experiments

import (
	"testing"
	"time"

	"transer/internal/ml"
	"transer/internal/obs"
	"transer/internal/transfer"
)

// slowPrepare is a method whose classifier-independent stage takes
// 20 ms and whose fits are free.
type slowPrepare struct{}

func (slowPrepare) Name() string { return "slow-prepare" }

func (slowPrepare) Prepare(t *transfer.Task, _ *obs.Span) (transfer.Prepared, error) {
	time.Sleep(20 * time.Millisecond)
	return instantFit(len(t.XT)), nil
}

func (m slowPrepare) Run(t *transfer.Task, factory ml.Factory) (*transfer.Result, error) {
	p, err := m.Prepare(t, nil)
	if err != nil {
		return nil, err
	}
	return p.Fit(factory, nil)
}

type instantFit int

func (n instantFit) Fit(ml.Factory, *obs.Span) (*transfer.Result, error) {
	return &transfer.Result{Labels: make([]int, n), Proba: make([]float64, n)}, nil
}

// TestRuntimeChargesPrepareToEveryRun: Table 3 reports the cost of one
// classifier run, and every run needs the prepared state. A method
// whose 20 ms prepare is shared by four instant fits must therefore
// report at least 20 ms, not the 5 ms that dividing the cell's total
// time by the classifier count would give.
func TestRuntimeChargesPrepareToEveryRun(t *testing.T) {
	task := &transfer.Task{XS: [][]float64{{0}, {1}}, YS: []int{0, 1}, XT: [][]float64{{0}, {1}}}
	classifiers := StandardClassifiers(1)
	ev, err := EvaluateMethod(slowPrepare{}, task, []int{0, 1}, classifiers, nil)
	if err != nil {
		t.Fatalf("EvaluateMethod: %v", err)
	}
	if ev.Runtime < 20*time.Millisecond {
		t.Errorf("runtime per classifier run = %v, want at least the 20ms prepare", ev.Runtime)
	}
}
