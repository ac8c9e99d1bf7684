package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approxEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMatrixBasicOps(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})

	c := a.Mul(b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if c.Sub(want).FrobeniusNorm() > 1e-12 {
		t.Errorf("Mul wrong: %v", c.Data)
	}

	s := a.Add(b)
	if s.At(0, 0) != 6 || s.At(1, 1) != 12 {
		t.Errorf("Add wrong: %v", s.Data)
	}

	d := a.T()
	if d.At(0, 1) != 3 || d.At(1, 0) != 2 {
		t.Errorf("T wrong: %v", d.Data)
	}

	v := a.MulVec([]float64{1, 1})
	if v[0] != 3 || v[1] != 7 {
		t.Errorf("MulVec wrong: %v", v)
	}
}

func TestIdentityAndClone(t *testing.T) {
	i3 := Identity(3)
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	if a.Mul(i3).Sub(a).FrobeniusNorm() > 1e-12 {
		t.Errorf("A*I != A")
	}
	c := a.Clone()
	c.Set(0, 0, 99)
	if a.At(0, 0) == 99 {
		t.Errorf("Clone should not share storage")
	}
}

func TestMean(t *testing.T) {
	a := FromRows([][]float64{{1, 10}, {3, 20}})
	mu := a.Mean()
	if mu[0] != 2 || mu[1] != 15 {
		t.Errorf("Mean = %v", mu)
	}
	empty := NewMatrix(0, 3)
	mu = empty.Mean()
	for _, v := range mu {
		if v != 0 {
			t.Errorf("empty mean should be zeros")
		}
	}
}

func TestCovariance(t *testing.T) {
	// Two perfectly correlated columns.
	a := FromRows([][]float64{{1, 2}, {2, 4}, {3, 6}})
	cov := Covariance(a, 0)
	// var(x) = 2/3, var(y) = 8/3, cov = 4/3 with 1/n normalisation
	if !approxEq(cov.At(0, 0), 2.0/3.0, 1e-9) {
		t.Errorf("var(x) = %v", cov.At(0, 0))
	}
	if !approxEq(cov.At(1, 1), 8.0/3.0, 1e-9) {
		t.Errorf("var(y) = %v", cov.At(1, 1))
	}
	if !approxEq(cov.At(0, 1), 4.0/3.0, 1e-9) || !approxEq(cov.At(1, 0), 4.0/3.0, 1e-9) {
		t.Errorf("cov(x,y) = %v / %v", cov.At(0, 1), cov.At(1, 0))
	}
	// Ridge lands on the diagonal only.
	covR := Covariance(a, 0.5)
	if !approxEq(covR.At(0, 0), 2.0/3.0+0.5, 1e-9) || !approxEq(covR.At(0, 1), 4.0/3.0, 1e-9) {
		t.Errorf("ridge misapplied")
	}
	// Degenerate: no rows.
	covE := Covariance(NewMatrix(0, 2), 1)
	if covE.At(0, 0) != 1 || covE.At(1, 1) != 1 || covE.At(0, 1) != 0 {
		t.Errorf("empty covariance should be ridge*I")
	}
}

func TestCholesky(t *testing.T) {
	a := FromRows([][]float64{{4, 2}, {2, 3}})
	l, err := Cholesky(a)
	if err != nil {
		t.Fatalf("Cholesky failed: %v", err)
	}
	rec := l.Mul(l.T())
	if rec.Sub(a).FrobeniusNorm() > 1e-9 {
		t.Errorf("L*Lt != A: %v", rec.Data)
	}
	// Not positive definite.
	bad := FromRows([][]float64{{0, 1}, {1, 0}})
	if _, err := Cholesky(bad); err == nil {
		t.Errorf("expected ErrSingular for indefinite matrix")
	}
}

func TestLUSolve(t *testing.T) {
	a := FromRows([][]float64{{2, 1, -1}, {-3, -1, 2}, {-2, 1, 2}})
	b := []float64{8, -11, -3}
	x, err := LUSolve(a, b)
	if err != nil {
		t.Fatalf("LUSolve failed: %v", err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if !approxEq(x[i], want[i], 1e-9) {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
	// Singular matrix rejected.
	sing := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := LUSolve(sing, []float64{1, 1}); err == nil {
		t.Errorf("expected error on singular solve")
	}
}

func TestEigenSymKnown(t *testing.T) {
	// Eigenvalues of [[2,1],[1,2]] are 3 and 1.
	a := FromRows([][]float64{{2, 1}, {1, 2}})
	vals, vecs, work := EigenSym(a)
	// One rotation zeroes the only off-diagonal pair.
	if work != (EigenWork{Sweeps: 1, Rotations: 1}) {
		t.Errorf("work = %+v, want one sweep of one rotation", work)
	}
	if !approxEq(vals[0], 3, 1e-9) || !approxEq(vals[1], 1, 1e-9) {
		t.Errorf("eigenvalues = %v, want [3 1]", vals)
	}
	// Eigenvector for 3 is (1,1)/sqrt2 up to sign.
	v0 := []float64{vecs.At(0, 0), vecs.At(1, 0)}
	if !approxEq(math.Abs(v0[0]), 1/math.Sqrt2, 1e-9) || !approxEq(math.Abs(v0[1]), 1/math.Sqrt2, 1e-9) {
		t.Errorf("first eigenvector = %v", v0)
	}
}

func TestEigenSymEmpty(t *testing.T) {
	vals, vecs, _ := EigenSym(NewMatrix(0, 0))
	if len(vals) != 0 || vecs.Rows != 0 {
		t.Errorf("empty matrix should yield empty eigensystem")
	}
}

func TestEigenReconstructionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(6)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := rng.NormFloat64()
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		vals, q, _ := EigenSym(a)
		// Reconstruct A = Q diag Qt.
		d := NewMatrix(n, n)
		for i, v := range vals {
			d.Set(i, i, v)
		}
		rec := q.Mul(d).Mul(q.T())
		if rec.Sub(a).FrobeniusNorm() > 1e-8*float64(n) {
			t.Fatalf("trial %d: reconstruction error %v", trial, rec.Sub(a).FrobeniusNorm())
		}
		// Q orthonormal.
		if q.T().Mul(q).Sub(Identity(n)).FrobeniusNorm() > 1e-8*float64(n) {
			t.Fatalf("trial %d: eigenvectors not orthonormal", trial)
		}
		// Sorted descending.
		for i := 1; i < n; i++ {
			if vals[i] > vals[i-1]+1e-12 {
				t.Fatalf("trial %d: eigenvalues not sorted: %v", trial, vals)
			}
		}
	}
}

func TestSymPowSquareRoot(t *testing.T) {
	a := FromRows([][]float64{{4, 0}, {0, 9}})
	r := SymPow(a, 0.5, 1e-12)
	if !approxEq(r.At(0, 0), 2, 1e-9) || !approxEq(r.At(1, 1), 3, 1e-9) {
		t.Errorf("sqrt = %v", r.Data)
	}
	// General SPD: sqrt(A)*sqrt(A) == A.
	b := FromRows([][]float64{{2, 1}, {1, 2}})
	rb := SymPow(b, 0.5, 1e-12)
	if rb.Mul(rb).Sub(b).FrobeniusNorm() > 1e-9 {
		t.Errorf("sqrt(B)^2 != B")
	}
	// Inverse square root composes with square root to identity.
	ib := SymPow(b, -0.5, 1e-12)
	if ib.Mul(rb).Sub(Identity(2)).FrobeniusNorm() > 1e-9 {
		t.Errorf("B^-1/2 * B^1/2 != I")
	}
}

func TestSymPowClampsTinyEigenvalues(t *testing.T) {
	// Rank-deficient covariance still yields a finite inverse sqrt.
	a := FromRows([][]float64{{1, 1}, {1, 1}}) // eigenvalues 2, 0
	r := SymPow(a, -0.5, 1e-6)
	for _, v := range r.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("SymPow produced non-finite output: %v", r.Data)
		}
	}
}

func TestTopEigenvectors(t *testing.T) {
	a := FromRows([][]float64{{5, 0, 0}, {0, 3, 0}, {0, 0, 1}})
	vals, vecs, _ := TopEigenvectors(a, 2)
	if len(vals) != 2 || vals[0] != 5 || vals[1] != 3 {
		t.Errorf("top eigenvalues = %v", vals)
	}
	if vecs.Cols != 2 || vecs.Rows != 3 {
		t.Errorf("vector shape = %dx%d", vecs.Rows, vecs.Cols)
	}
	// Requesting more than n clamps.
	vals, _, _ = TopEigenvectors(a, 10)
	if len(vals) != 3 {
		t.Errorf("clamped eigenvalue count = %d", len(vals))
	}
}

func TestPropertyLUSolveRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		// Diagonally dominant => nonsingular.
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			sum := 0.0
			for j := 0; j < n; j++ {
				if i != j {
					v := rng.NormFloat64()
					a.Set(i, j, v)
					sum += math.Abs(v)
				}
			}
			a.Set(i, i, sum+1+rng.Float64())
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		b := a.MulVec(x)
		got, err := LUSolve(a, b)
		if err != nil {
			return false
		}
		for i := range x {
			if !approxEq(got[i], x[i], 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Errorf("LUSolve round-trip failed: %v", err)
	}
}

func TestPropertyCovariancePSD(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		d := 1 + rng.Intn(6)
		m := NewMatrix(n, d)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		cov := Covariance(m, 0)
		vals, _, _ := EigenSym(cov)
		for _, v := range vals {
			if v < -1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Errorf("covariance not PSD: %v", err)
	}
}

func BenchmarkEigenSym8(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 8
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EigenSym(a)
	}
}

func BenchmarkMatMul64(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	n := 64
	a := NewMatrix(n, n)
	c := NewMatrix(n, n)
	for i := range a.Data {
		a.Data[i] = rng.Float64()
		c.Data[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Mul(c)
	}
}

// forwardSolveMatrixReference is ForwardSolveMatrix before it solved
// into a transposed buffer, kept as its oracle: the same subtractions
// in the same order, through At/Set down the columns of X.
func forwardSolveMatrixReference(l, b *Matrix) (*Matrix, error) {
	n := l.Rows
	x := NewMatrix(n, b.Cols)
	for c := 0; c < b.Cols; c++ {
		for i := 0; i < n; i++ {
			s := b.At(i, c)
			for k := 0; k < i; k++ {
				s -= l.At(i, k) * x.At(k, c)
			}
			d := l.At(i, i)
			if math.Abs(d) < 1e-14 {
				return nil, ErrSingular
			}
			x.Set(i, c, s/d)
		}
	}
	return x, nil
}

// randomMatrix draws a rows×cols matrix with standard normal entries.
func randomMatrix(rows, cols int, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// TestForwardSolveMatrixBitwiseMatchesOracle: on Cholesky factors of
// TCA-sized kernels and on random lower-triangular systems, with
// square, narrow, wide and empty right-hand sides, the solve equals
// the column-walking oracle bit for bit, and a zero pivot is
// ErrSingular on both.
func TestForwardSolveMatrixBitwiseMatchesOracle(t *testing.T) {
	chol := func(n int, seed int64) *Matrix {
		a := rbfKernel(n, 4, 0.25, seed).Add(Identity(n))
		l, err := Cholesky(a)
		if err != nil {
			t.Fatalf("Cholesky %d: %v", n, err)
		}
		return l
	}
	lower := func(n int, seed int64) *Matrix {
		l := randomMatrix(n, n, seed)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				l.Set(i, j, 0)
			}
			l.Set(i, i, 1+math.Abs(l.At(i, i)))
		}
		return l
	}
	for _, tc := range []struct {
		name string
		l, b *Matrix
	}{
		{"Cholesky 256, square rhs", chol(256, 1), randomMatrix(256, 256, 2)},
		{"Cholesky 256, TCA B", chol(256, 3), rbfKernel(256, 4, 0.25, 4)},
		{"Cholesky 256, 256x4 rhs", chol(256, 5), randomMatrix(256, 4, 6)},
		{"Cholesky 256, 256x300 rhs", chol(256, 7), randomMatrix(256, 300, 8)},
		{"lower 37, 37x4 rhs", lower(37, 9), randomMatrix(37, 4, 10)},
		{"lower 257, 257x300 rhs", lower(257, 11), randomMatrix(257, 300, 12)},
		{"lower 5, 5x0 rhs", lower(5, 13), NewMatrix(5, 0)},
		{"lower 1, 1x1 rhs", lower(1, 14), randomMatrix(1, 1, 15)},
	} {
		in := tc.b.Clone()
		got, err := ForwardSolveMatrix(tc.l, tc.b)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, _ := forwardSolveMatrixReference(tc.l, tc.b)
		if i := sameBits(tc.b.Data, in.Data); i >= 0 {
			t.Fatalf("%s: ForwardSolveMatrix modified its rhs at %d", tc.name, i)
		}
		if got.Rows != want.Rows || got.Cols != want.Cols {
			t.Fatalf("%s: shape %dx%d, oracle %dx%d", tc.name, got.Rows, got.Cols, want.Rows, want.Cols)
		}
		if i := sameBits(got.Data, want.Data); i >= 0 {
			t.Fatalf("%s: entry %d = %v, oracle %v", tc.name, i, got.Data[i], want.Data[i])
		}
	}

	l := lower(16, 16)
	l.Set(9, 9, 0)
	for _, cols := range []int{1, 4, 16} {
		b := randomMatrix(16, cols, 17)
		if _, err := ForwardSolveMatrix(l, b); !errors.Is(err, ErrSingular) {
			t.Errorf("zero pivot, %d rhs columns: err = %v, want ErrSingular", cols, err)
		}
		if _, err := forwardSolveMatrixReference(l, b); !errors.Is(err, ErrSingular) {
			t.Fatalf("oracle: zero pivot, %d rhs columns: err = %v", cols, err)
		}
	}
}

func BenchmarkForwardSolve256(b *testing.B) {
	a := rbfKernel(256, 4, 0.25, 5).Add(Identity(256))
	l, err := Cholesky(a)
	if err != nil {
		b.Fatal(err)
	}
	rhs := rbfKernel(256, 4, 0.25, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ForwardSolveMatrix(l, rhs); err != nil {
			b.Fatal(err)
		}
	}
}
