package linalg

import (
	"fmt"
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
		off := maxAbsOffDiag(m)
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

// maxAbsOffDiag returns the largest |a_ij| for i != j of a square
// matrix; eigenSymReference's convergence criterion.
func maxAbsOffDiag(m *Matrix) float64 {
	best := 0.0
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if i == j {
				continue
			}
			if a := math.Abs(m.At(i, j)); a > best {
				best = a
			}
		}
	}
	return best
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

// tcaSystem builds the symmetric matrix TCA hands to EigenSym for n
// landmarks, nS of them from the source: C = R⁻¹ B R⁻ᵀ with
// R Rᵀ = K L K + I and B = K H K over an RBF kernel K, where L is the
// MMD coefficient matrix and H the centring matrix; K L K + I and B
// are symmetrised before the solves and C after them.
func tcaSystem(tb testing.TB, n, nS int, seed int64) *Matrix {
	k := rbfKernel(n, 4, 0.25, seed)
	nT := n - nS
	l := NewMatrix(n, n)
	h := Identity(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			switch {
			case i < nS && j < nS:
				l.Set(i, j, 1/float64(nS*nS))
			case i >= nS && j >= nS:
				l.Set(i, j, 1/float64(nT*nT))
			default:
				l.Set(i, j, -1/float64(nS*nT))
			}
			h.Set(i, j, h.At(i, j)-1/float64(n))
		}
	}
	a := k.Mul(l).Mul(k).Add(Identity(n))
	b := k.Mul(h).Mul(k)
	symmetrise(a)
	symmetrise(b)
	r, err := Cholesky(a)
	if err != nil {
		tb.Fatalf("Cholesky: %v", err)
	}
	z, err := ForwardSolveMatrix(r, b)
	if err != nil {
		tb.Fatalf("first forward solve: %v", err)
	}
	c, err := ForwardSolveMatrix(r, z.T())
	if err != nil {
		tb.Fatalf("second forward solve: %v", err)
	}
	symmetrise(c)
	return c
}

// symmetrise replaces m by (m + mᵀ)/2 in place, as TCA does.
func symmetrise(m *Matrix) {
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			v := (m.At(i, j) + m.At(j, i)) / 2
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
}

// sameBits returns the first index at which two slices differ bit for
// bit, 0 when their lengths differ, or -1 when they are identical.
func sameBits(got, want []float64) int {
	if len(got) != len(want) {
		return 0
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// TestEigenSymBitwiseMatchesReference covers sizes on both sides of
// the power of two TCA uses, where the padded working stride matters,
// and the TCA system itself.
func TestEigenSymBitwiseMatchesReference(t *testing.T) {
	type tc struct {
		name string
		a    *Matrix
	}
	var cases []tc
	// Under -short (and so under the race detector) the RBF kernel
	// alone covers n = 256: the At/Set reference is slow there.
	for _, n := range []int{1, 2, 3, 8, 64, 255, 256, 257} {
		if n > 64 && testing.Short() {
			continue
		}
		cases = append(cases, tc{fmt.Sprintf("random symmetric %dx%d", n, n), randomSymmetric(n, int64(n))})
	}
	cases = append(cases, tc{"RBF kernel 256x256", rbfKernel(256, 4, 0.25, 5)})
	if !testing.Short() {
		cases = append(cases, tc{"TCA system 256x256", tcaSystem(t, 256, 128, 7)})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := tc.a.Clone()
			vals, vecs := EigenSym(tc.a)
			wantVals, wantVecs := eigenSymReference(tc.a)
			if i := sameBits(tc.a.Data, in.Data); i >= 0 {
				t.Fatalf("EigenSym modified its input at %d", i)
			}
			if i := sameBits(vals, wantVals); i >= 0 {
				t.Fatalf("eigenvalue %d = %v, reference %v", i, vals[i], wantVals[i])
			}
			if i := sameBits(vecs.Data, wantVecs.Data); i >= 0 {
				t.Fatalf("eigenvector entry %d = %v, reference %v", i, vecs.Data[i], wantVecs.Data[i])
			}
		})
	}
}

func BenchmarkEigenSym256(b *testing.B) {
	a := rbfKernel(256, 4, 0.25, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EigenSym(a)
	}
}
