package transfer_test

// Differential-oracle suite: every feature-space transfer method is
// run on shared generated domains and checked against the invariants
// any correct implementation satisfies — output sizes, probability
// bounds, label/probability consistency at the 0.5 threshold, and
// fits of one shared Prepared equal to fresh runs. The raw-data DR
// baseline rejects feature-only tasks by design; prepared_test.go runs
// the oracle over all seven methods on a raw-data task.

import (
	"testing"

	"transer/internal/experiments"
	"transer/internal/ml/tree"
	"transer/internal/testkit"
	"transer/internal/testkit/oracle"
	"transer/internal/transfer"
)

// TestMethodsSatisfyOracle sweeps every method over shared random
// domains. Trials are few but each covers all methods on the same
// domain, which is the point of a differential check.
func TestMethodsSatisfyOracle(t *testing.T) {
	classifiers := experiments.StandardClassifiers(1)
	testkit.Run(t, "transfer/differential-oracle", 4, func(pt *testkit.T) {
		d := testkit.NewDomain(pt.Rng, pt.Size)
		task := oracle.Task(d)
		for _, m := range oracle.Methods(7) {
			oracle.CheckMethod(pt, m, task, classifiers)
			if pt.Failed() {
				return
			}
		}
	})
}

// TestMethodsRejectInvalidTasks: every method must refuse a task whose
// feature-space invariants are broken rather than panic or emit a
// partial result.
func TestMethodsRejectInvalidTasks(t *testing.T) {
	bad := []*transfer.Task{
		{},                                   // empty everything
		{XS: [][]float64{{1}}, YS: []int{1}}, // no target
		{XS: [][]float64{{1}}, YS: []int{1, 0}, XT: [][]float64{{1}}},            // misaligned labels
		{XS: [][]float64{{1, 2}, {3}}, YS: []int{1, 0}, XT: [][]float64{{1, 2}}}, // ragged
	}
	factory := tree.Factory(tree.Config{Seed: 1})
	for _, m := range oracle.Methods(7) {
		for i, task := range bad {
			if _, err := m.Run(task, factory); err == nil {
				t.Errorf("%s accepted invalid task %d", m.Name(), i)
			}
		}
	}
}
