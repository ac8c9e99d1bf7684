package nn

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func xorProblem(n int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		a, b := rng.Intn(2), rng.Intn(2)
		x[i] = []float64{float64(a) + rng.Float64()*0.1, float64(b) + rng.Float64()*0.1}
		y[i] = a ^ b
	}
	return x, y
}

// TestPredictProbaPureAndConcurrent pins the inference-purity contract
// of ml.Classifier that chunked parallel prediction relies on:
// PredictProba must not mutate the network (the training-time layer
// caches must stay untouched), so concurrent calls over disjoint row
// chunks return exactly what one serial call returns. Run under -race
// this also proves the absence of data races on the weights.
func TestPredictProbaPureAndConcurrent(t *testing.T) {
	x, y := xorProblem(200, 1)
	xt, _ := xorProblem(120, 2)
	d := NewDANN(DANNConfig{Seed: 3})
	if err := d.FitDomains(x, y, xt); err != nil {
		t.Fatal(err)
	}
	serial := d.PredictProba(x)
	again := d.PredictProba(x)
	for i := range serial {
		if math.Float64bits(serial[i]) != math.Float64bits(again[i]) {
			t.Fatalf("dann: repeated prediction differs at row %d", i)
		}
	}
	// Predict disjoint chunks concurrently on the shared model.
	const chunks = 8
	out := make([]float64, len(x))
	var wg sync.WaitGroup
	size := (len(x) + chunks - 1) / chunks
	for lo := 0; lo < len(x); lo += size {
		hi := lo + size
		if hi > len(x) {
			hi = len(x)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			copy(out[lo:hi], d.PredictProba(x[lo:hi]))
		}(lo, hi)
	}
	wg.Wait()
	for i := range serial {
		if math.Float64bits(out[i]) != math.Float64bits(serial[i]) {
			t.Fatalf("dann: concurrent chunked prediction differs at row %d: %v vs %v",
				i, out[i], serial[i])
		}
	}
}
