// Benchmarks regenerating each table and figure of the paper's
// evaluation section. Each benchmark runs its experiment at a reduced
// scale so `go test -bench=.` completes in minutes; the full-scale
// regeneration is `go run ./cmd/experiments -exp all` (see
// EXPERIMENTS.md for recorded full-scale results).
package transer_test

import (
	"testing"

	"transer/internal/experiments"
	"transer/internal/pipeline"
)

// benchScale keeps benchmark iterations affordable while exercising
// every code path of the corresponding experiment.
const benchScale = 0.08

func benchOpts() experiments.Options {
	return experiments.Options{
		Scale:    benchScale,
		Seed:     1,
		SkipSlow: true,
		// Two classifiers keep the per-iteration cost down while still
		// exercising the averaging protocol.
		Classifiers: experiments.StandardClassifiers(1)[1:3],
	}
}

// BenchmarkTable1Characteristics regenerates the data set
// characteristics table (paper Table 1).
func BenchmarkTable1Characteristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2Distributions regenerates the bi-modal similarity
// histograms (paper Figure 2).
func BenchmarkFigure2Distributions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure2(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5Decay regenerates the exponential decay curves
// (paper Figure 5).
func BenchmarkFigure5Decay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if pts := experiments.Figure5(); len(pts) == 0 {
			b.Fatal("no decay points")
		}
	}
}

// BenchmarkTable2LinkageQuality regenerates the method-comparison
// quality sweep (paper Table 2; runtimes feed Table 3).
func BenchmarkTable2LinkageQuality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3Runtime measures the per-method runtime comparison on
// one mid-sized task (paper Table 3's core claim: TransER within a
// small factor of Naive, far below the other TL baselines).
func BenchmarkTable3Runtime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		_ = res.RuntimeTable()
	}
}

// BenchmarkFigure6LabelFraction regenerates the labelled-source-size
// sensitivity sweep (paper Figure 6).
func BenchmarkFigure6LabelFraction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure6(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7Params regenerates the t_c/t_l/t_p/k sensitivity
// sweep (paper Figure 7).
func BenchmarkFigure7Params(b *testing.B) {
	opts := benchOpts()
	// The parameter grid is large; a single classifier suffices for the
	// benchmark's purpose.
	opts.Classifiers = experiments.StandardClassifiers(1)[1:2]
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure7(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4Ablation regenerates the component ablation study
// (paper Table 4).
func BenchmarkTable4Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table4(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// Worker-sweep benchmarks: the same experiment at workers=1 (serial)
// and workers=0 (one per CPU). Because every result lands in an
// index-addressed slot, the outputs are byte-identical across the
// sweep — only the wall clock changes. EXPERIMENTS.md records the
// measured speedups.

// workerCounts are the bounds compared by the sweep benchmarks.
func workerCounts() []struct {
	name string
	n    int
} {
	return []struct {
		name string
		n    int
	}{{"serial", 1}, {"allCPUs", 0}}
}

// BenchmarkTable1Workers isolates the query.CompareMatrix fan-out: Table 1
// is dominated by feature-matrix construction over the record pairs.
func BenchmarkTable1Workers(b *testing.B) {
	for _, wc := range workerCounts() {
		b.Run(wc.name, func(b *testing.B) {
			opts := benchOpts()
			opts.Workers = wc.n
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Table1(opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExperimentsColdVsWarm quantifies the domain store's
// rebuild savings on the construction-dominated experiments (Table 1
// plus Figure 2, which share all their domains): "cold" gives every
// iteration a fresh store, so each rebuilds all domains from
// scratch; "warm" shares one pre-populated store, so every iteration
// is served from cache. The rendered output is byte-identical either
// way; EXPERIMENTS.md records the measured gap.
func BenchmarkExperimentsColdVsWarm(b *testing.B) {
	iteration := func(b *testing.B, st *pipeline.Store) {
		opts := benchOpts()
		opts.Store = st
		if _, err := experiments.Table1(opts); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.Figure2(opts); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			iteration(b, pipeline.NewStore())
		}
	})
	b.Run("warm", func(b *testing.B) {
		st := pipeline.NewStore()
		iteration(b, st) // populate outside the timed loop
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			iteration(b, st)
		}
	})
}

// BenchmarkTable2Workers exercises the (task, method) cell fan-out of
// the experiment harness plus the parallel SEL/GEN/TCL internals.
func BenchmarkTable2Workers(b *testing.B) {
	for _, wc := range workerCounts() {
		b.Run(wc.name, func(b *testing.B) {
			opts := benchOpts()
			opts.Workers = wc.n
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Table2(opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
