package core

import (
	"testing"

	"transer/internal/kdtree"
)

// Ablation benchmarks for implementation design choices: the
// duplicate-group optimisation of the SEL phase and the weighted k-d
// tree neighbourhood index (vs brute force). Run with
//
//	go test -bench=Ablation ./internal/core/
func BenchmarkAblationSELGrouped(b *testing.B) {
	xs, ys, xt := quantizedProblem(3000, 6, 1)
	cfg := DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SelectInstances(xs, ys, xt, cfg)
	}
}

func BenchmarkAblationSELPerInstance(b *testing.B) {
	xs, ys, xt := quantizedProblem(3000, 6, 1)
	cfg := DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		referenceSelect(xs, ys, xt, cfg)
	}
}

func BenchmarkAblationKDTreeKNN(b *testing.B) {
	xs, _, _ := quantizedProblem(5000, 6, 2)
	ix := kdtree.NewWeightedIndex(kdtree.Uniq(xs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.KNN(xs[i%len(xs)], 7)
	}
}

func BenchmarkAblationBruteKNN(b *testing.B) {
	xs, _, _ := quantizedProblem(5000, 6, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kdtree.BruteKNN(xs, xs[i%len(xs)], 7, nil)
	}
}
