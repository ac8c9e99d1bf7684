package transfer_test

import (
	"sync"
	"testing"

	"transer/internal/datagen"
	"transer/internal/experiments"
	"transer/internal/pipeline"
	"transer/internal/testkit/oracle"
	"transer/internal/transfer"
)

// rawTask is a small bibliographic task with raw databases and record
// pairs, so DR runs alongside the feature-space methods.
func rawTask(t *testing.T) *transfer.Task {
	t.Helper()
	src := pipeline.BuildPair(datagen.DBLPACM(0.05), 0)
	tgt := pipeline.BuildPair(datagen.DBLPScholar(0.05), 0)
	task := &transfer.Task{
		XS: src.X, YS: src.Y, XT: tgt.X,
		SourceA: src.A, SourceB: src.B, TargetA: tgt.A, TargetB: tgt.B,
		SourcePairs: src.Pairs, TargetPairs: tgt.Pairs,
	}
	if err := task.Validate(); err != nil {
		t.Fatalf("raw task: %v", err)
	}
	return task
}

// allMethods is every method of the paper's comparison, sized for
// tests.
func allMethods() []transfer.Method {
	return append(oracle.Methods(7), transfer.DR{Seed: 7})
}

// TestPreparedReuseAllMethods runs the oracle over all seven methods:
// one Prepared, fitted with the four standard classifiers forwards and
// then backwards, must reproduce each classifier's fresh Run bitwise.
func TestPreparedReuseAllMethods(t *testing.T) {
	task := rawTask(t)
	classifiers := experiments.StandardClassifiers(1)
	for _, m := range allMethods() {
		oracle.CheckMethod(t, m, task, classifiers)
	}
}

// TestPreparedConcurrentFits fits one Prepared per method from four
// goroutines at once, each with a different standard classifier; every
// fit must equal the same classifier's serial fit bitwise. Under -race
// this also checks that Fit never writes shared state.
func TestPreparedConcurrentFits(t *testing.T) {
	task := rawTask(t)
	classifiers := experiments.StandardClassifiers(1)
	for _, m := range allMethods() {
		p, err := m.Prepare(task, nil)
		if err != nil {
			t.Fatalf("%s: prepare: %v", m.Name(), err)
		}
		serial := make([]*transfer.Result, len(classifiers))
		for i, c := range classifiers {
			if serial[i], err = p.Fit(c.New, nil); err != nil {
				t.Fatalf("%s with %s: %v", m.Name(), c.Name, err)
			}
		}
		concurrent := make([]*transfer.Result, len(classifiers))
		errs := make([]error, len(classifiers))
		var wg sync.WaitGroup
		for i, c := range classifiers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				concurrent[i], errs[i] = p.Fit(c.New, nil)
			}()
		}
		wg.Wait()
		for i, c := range classifiers {
			if errs[i] != nil {
				t.Fatalf("%s with %s (concurrent): %v", m.Name(), c.Name, errs[i])
			}
			if !oracle.SameResult(concurrent[i], serial[i]) {
				t.Errorf("%s with %s: concurrent fit differs from the serial one", m.Name(), c.Name)
			}
		}
	}
}
