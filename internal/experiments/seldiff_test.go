package experiments

import (
	"testing"

	"transer/internal/core"
	"transer/internal/pipeline"
	"transer/internal/testkit"
	"transer/internal/testkit/oracle"
)

// TestSelectInstancesMatchesOracleOnDatasets runs the SEL phase of
// every table 2 task and requires the selection to equal the
// per-instance oracle (one pointer-tree query per source row, no
// deduplication). Scale 0.25 exercises real duplicate distributions;
// -short drops to 0.05 to keep the unit suite quick.
func TestSelectInstancesMatchesOracleOnDatasets(t *testing.T) {
	opts := tiny()
	opts.Scale = 0.25
	if testing.Short() {
		opts.Scale = 0.05
	}
	st := opts.store()
	cfg := core.DefaultConfig()
	for _, ref := range pipeline.PaperTaskRefs() {
		bt := buildTask(st, ref, opts)
		want := oracle.SelectInstances(bt.task.XS, bt.task.YS, bt.task.XT, cfg)
		got := core.SelectInstances(bt.task.XS, bt.task.YS, bt.task.XT, cfg)
		if !testkit.EqualInts(got, want) {
			t.Errorf("%s: selected %d instances, per-instance oracle selected %d (selections differ)",
				bt.name, len(got), len(want))
		}
	}
}
