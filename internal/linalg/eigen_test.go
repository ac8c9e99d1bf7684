package linalg

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// eigenSymReference is the straightforward Jacobi implementation that
// EigenSym replaced, kept as its oracle: the same floating-point
// operations in the same order, through At/Set on an untransposed
// eigenvector accumulator. EigenSym must match it bit for bit.
func eigenSymReference(a *Matrix) (values []float64, vectors *Matrix) {
	a.mustSquare()
	n := a.Rows
	if n == 0 {
		return nil, NewMatrix(0, 0)
	}
	m := a.Clone()
	v := Identity(n)
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := m.MaxAbsOffDiag()
		if off < 1e-12 {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := m.At(p, q)
				if math.Abs(apq) < 1e-15 {
					continue
				}
				app := m.At(p, p)
				aqq := m.At(q, q)
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				for k := 0; k < n; k++ {
					akp := m.At(k, p)
					akq := m.At(k, q)
					m.Set(k, p, c*akp-s*akq)
					m.Set(k, q, s*akp+c*akq)
				}
				for k := 0; k < n; k++ {
					apk := m.At(p, k)
					aqk := m.At(q, k)
					m.Set(p, k, c*apk-s*aqk)
					m.Set(q, k, s*apk+c*aqk)
				}
				for k := 0; k < n; k++ {
					vkp := v.At(k, p)
					vkq := v.At(k, q)
					v.Set(k, p, c*vkp-s*vkq)
					v.Set(k, q, s*vkp+c*vkq)
				}
			}
		}
	}
	type pair struct {
		val float64
		idx int
	}
	pairs := make([]pair, n)
	for i := 0; i < n; i++ {
		pairs[i] = pair{m.At(i, i), i}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].val > pairs[j].val })
	values = make([]float64, n)
	vectors = NewMatrix(n, n)
	for j, p := range pairs {
		values[j] = p.val
		for i := 0; i < n; i++ {
			vectors.Set(i, j, v.At(i, p.idx))
		}
	}
	return values, vectors
}

// randomSymmetric draws an n×n symmetric matrix with standard normal
// entries.
func randomSymmetric(n int, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	return a
}

// rbfKernel is the n×n RBF kernel over n random points in [0,1]^dim,
// the shape of TCA's landmark kernel.
func rbfKernel(n, dim int, gamma float64, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, dim)
		for j := range pts[i] {
			pts[i][j] = rng.Float64()
		}
	}
	k := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			s := 0.0
			for d := range pts[i] {
				x := pts[i][d] - pts[j][d]
				s += x * x
			}
			v := math.Exp(-gamma * s)
			k.Set(i, j, v)
			k.Set(j, i, v)
		}
	}
	return k
}

func TestEigenSymBitwiseMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		a    *Matrix
	}{
		{"random symmetric 37x37", randomSymmetric(37, 3)},
		{"RBF kernel 256x256", rbfKernel(256, 4, 0.25, 5)},
	} {
		in := tc.a.Clone()
		vals, vecs := EigenSym(tc.a)
		wantVals, wantVecs := eigenSymReference(tc.a)
		for i := range tc.a.Data {
			if math.Float64bits(tc.a.Data[i]) != math.Float64bits(in.Data[i]) {
				t.Fatalf("%s: EigenSym modified its input", tc.name)
			}
		}
		for i := range wantVals {
			if math.Float64bits(vals[i]) != math.Float64bits(wantVals[i]) {
				t.Fatalf("%s: eigenvalue %d = %v, reference %v", tc.name, i, vals[i], wantVals[i])
			}
		}
		for i := range wantVecs.Data {
			if math.Float64bits(vecs.Data[i]) != math.Float64bits(wantVecs.Data[i]) {
				t.Fatalf("%s: eigenvector entry %d = %v, reference %v", tc.name, i, vecs.Data[i], wantVecs.Data[i])
			}
		}
	}
}

func BenchmarkEigenSym256(b *testing.B) {
	a := rbfKernel(256, 4, 0.25, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EigenSym(a)
	}
}
