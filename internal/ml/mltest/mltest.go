// Package mltest provides shared synthetic classification problems for
// testing the classifier implementations, plus the shared
// export→import→predict exactness check every ml.ParamClassifier must
// pass (the contract internal/model's artifacts rely on).
package mltest

import (
	"bytes"
	"errors"
	"testing"

	"transer/internal/linalg"
	"transer/internal/ml"
	"transer/internal/seeded"
)

// TwoBlobs generates a linearly separable-ish binary problem: class 1
// centred at (0.8, ..., 0.8), class 0 at (0.2, ..., 0.2), with the
// given Gaussian spread. Returns n rows of dimension dim.
func TwoBlobs(n, dim int, spread float64, seed int64) (x [][]float64, y []int) {
	rng := seeded.New(seed)
	x = make([][]float64, n)
	y = make([]int, n)
	for i := range x {
		row := make([]float64, dim)
		label := i % 2
		centre := 0.2
		if label == 1 {
			centre = 0.8
		}
		for j := range row {
			v := centre + rng.NormFloat64()*spread
			if v < 0 {
				v = 0
			} else if v > 1 {
				v = 1
			}
			row[j] = v
		}
		x[i] = row
		y[i] = label
	}
	return x, y
}

// XOR generates the classic non-linearly-separable XOR problem in 2D
// with jitter, for testing non-linear classifiers.
func XOR(n int, jitter float64, seed int64) (x [][]float64, y []int) {
	rng := seeded.New(seed)
	x = make([][]float64, n)
	y = make([]int, n)
	for i := range x {
		a := rng.Intn(2)
		b := rng.Intn(2)
		x[i] = []float64{
			float64(a)*0.8 + 0.1 + rng.NormFloat64()*jitter,
			float64(b)*0.8 + 0.1 + rng.NormFloat64()*jitter,
		}
		if a != b {
			y[i] = 1
		}
	}
	return x, y
}

// OracleSet is one named training set for a bitwise fit oracle.
type OracleSet struct {
	Name string
	X    [][]float64
	Y    []int
}

// OracleSets are the training sets the bitwise fit oracles compare
// on: blobs and XOR with row counts that leave every tail of a
// four-wide kernel; small blobs, whose few rows let a one-ulp change
// in a single score reach Platt scaling's (A, B); and blobs scaled by
// 500, whose linear scores pass ±708 and so reach the sigmoid kernel's
// scalar fallback.
func OracleSets() []OracleSet {
	blobX, blobY := TwoBlobs(301, 4, 0.12, 1)
	xorX, xorY := XOR(202, 0.05, 2)
	smallX, smallY := TwoBlobs(17, 3, 0.4, 0)
	midX, midY := TwoBlobs(64, 3, 0.2, 0)
	bigX, bigY := TwoBlobs(259, 7, 0.3, 3)
	for _, row := range bigX {
		for j := range row {
			row[j] *= 500
		}
	}
	return []OracleSet{
		{"blobs", blobX, blobY},
		{"xor", xorX, xorY},
		{"blobs 17", smallX, smallY},
		{"blobs 64", midX, midY},
		{"blobs x500", bigX, bigY},
	}
}

// CheckParamRoundTrip asserts the ParamClassifier contract for one
// implementation: Params before Fit returns ml.ErrNotTrained; after
// Fit, a fresh instance restored via SetParams predicts bitwise
// identically to the trained original on held-out rows; and the
// restored instance re-exports byte-identical params (export is a
// fixed point). fresh must return a new untrained instance with the
// same configuration each call.
func CheckParamRoundTrip(tb testing.TB, fresh func() ml.ParamClassifier, seed int64) {
	tb.Helper()
	orig := fresh()
	if _, err := orig.Params(); !errors.Is(err, ml.ErrNotTrained) {
		tb.Fatalf("%s: Params before Fit returned %v, want ml.ErrNotTrained", orig.ClassifierType(), err)
	}
	xTrain, yTrain := TwoBlobs(200, 4, 0.15, seed)
	xEval, _ := TwoBlobs(97, 4, 0.25, seed+1)
	if err := orig.Fit(xTrain, yTrain); err != nil {
		tb.Fatalf("%s: Fit: %v", orig.ClassifierType(), err)
	}
	params, err := orig.Params()
	if err != nil {
		tb.Fatalf("%s: Params after Fit: %v", orig.ClassifierType(), err)
	}
	restored := fresh()
	if err := restored.SetParams(params); err != nil {
		tb.Fatalf("%s: SetParams: %v", orig.ClassifierType(), err)
	}
	if got, want := restored.ClassifierType(), orig.ClassifierType(); got != want {
		tb.Fatalf("restored classifier type %q, want %q", got, want)
	}
	want := orig.PredictProba(xEval)
	got := restored.PredictProba(xEval)
	for i := range want {
		if want[i] != got[i] {
			tb.Fatalf("%s: restored proba[%d] = %v, original %v (must be bitwise identical)",
				orig.ClassifierType(), i, got[i], want[i])
		}
	}
	reexport, err := restored.Params()
	if err != nil {
		tb.Fatalf("%s: re-export: %v", orig.ClassifierType(), err)
	}
	if !bytes.Equal(params, reexport) {
		tb.Fatalf("%s: re-exported params differ from the original export", orig.ClassifierType())
	}
	if err := restored.SetParams([]byte("{not json")); err == nil {
		tb.Fatalf("%s: SetParams accepted malformed JSON", orig.ClassifierType())
	}
}

// Accuracy returns the fraction of probabilities on the correct side
// of 0.5.
func Accuracy(proba []float64, y []int) float64 {
	if len(proba) == 0 {
		return 0
	}
	correct := 0
	for i, p := range proba {
		pred := 0
		if p >= 0.5 {
			pred = 1
		}
		if pred == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(proba))
}

// EachKernelPath runs f once on linalg's Go loops and once on its AVX2
// kernels, skipping the second where the CPU lacks AVX2, so a fit
// oracle covers both paths.
func EachKernelPath(t *testing.T, f func(t *testing.T)) {
	for _, avx2 := range []bool{false, true} {
		name := "go"
		if avx2 {
			name = "avx2"
		}
		t.Run(name, func(t *testing.T) {
			restore, ok := linalg.UseKernels(avx2)
			if !ok {
				t.Skip("CPU lacks AVX2: only the Go kernels run here")
			}
			t.Cleanup(restore)
			f(t)
		})
	}
}
