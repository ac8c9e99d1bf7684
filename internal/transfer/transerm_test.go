package transfer

import (
	"testing"

	"transer/internal/core"
)

// TestTransERAdapterMatchesCore: the Method adapter must forward to
// core.Run verbatim — identical labels and probabilities for the same
// configuration.
func TestTransERAdapterMatchesCore(t *testing.T) {
	task, _ := blobTask(140, 70, 0.05, 61)
	cfg := core.Config{K: 5, TC: 0.7, TL: 0.7, TP: 0.9, B: 3, Seed: 1}
	viaMethod, err := TransER{Config: cfg}.Run(task, factory())
	if err != nil {
		t.Fatalf("adapter: %v", err)
	}
	direct, err := core.Run(task.XS, task.YS, task.XT, factory(), cfg)
	if err != nil {
		t.Fatalf("core.Run: %v", err)
	}
	for i := range direct.Proba {
		if viaMethod.Proba[i] != direct.Proba[i] || viaMethod.Labels[i] != direct.Labels[i] {
			t.Fatalf("row %d: adapter (%d, %v) vs core (%d, %v)", i,
				viaMethod.Labels[i], viaMethod.Proba[i], direct.Labels[i], direct.Proba[i])
		}
	}
}

// TestTransERZeroConfigUsesDefaults: the zero-value Config must mean
// core.DefaultConfig(), not a zero-threshold run.
func TestTransERZeroConfigUsesDefaults(t *testing.T) {
	task, _ := blobTask(140, 70, 0.05, 62)
	zero, err := TransER{}.Run(task, factory())
	if err != nil {
		t.Fatalf("zero config: %v", err)
	}
	explicit, err := core.Run(task.XS, task.YS, task.XT, factory(), core.DefaultConfig())
	if err != nil {
		t.Fatalf("default config: %v", err)
	}
	for i := range explicit.Proba {
		if zero.Proba[i] != explicit.Proba[i] {
			t.Fatalf("row %d: zero-value Config %v, DefaultConfig %v", i, zero.Proba[i], explicit.Proba[i])
		}
	}
}
