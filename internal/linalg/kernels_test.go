package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// forceAVX2 sets the kernel path for the rest of the test. Forcing the
// assembly path on a CPU without AVX2 skips the test.
func forceAVX2(tb testing.TB, on bool) {
	tb.Helper()
	if on && !haveAVX2() {
		tb.Skip("CPU lacks AVX2: only the Go kernels run here")
	}
	old := useAVX2
	useAVX2 = on
	tb.Cleanup(func() { useAVX2 = old })
}

// kernelPaths names the two kernel paths by their useAVX2 setting.
var kernelPaths = []struct {
	name string
	avx2 bool
}{{"go", false}, {"avx2", true}}

// eachKernelPath runs f once per kernel path this CPU offers.
func eachKernelPath(t *testing.T, f func(t *testing.T)) {
	for _, p := range kernelPaths {
		t.Run(p.name, func(t *testing.T) {
			forceAVX2(t, p.avx2)
			f(t)
		})
	}
}

// kernelOperand draws a vector of length n that mixes standard normal
// values with ±0, ±Inf, NaN, subnormals and values whose products
// overflow, so every lane of every tail meets each special case.
func kernelOperand(rng *rand.Rand, n int) []float64 {
	specials := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		3e-310, -2.5e-309, math.MaxFloat64, -1e308,
	}
	v := make([]float64, n)
	for i := range v {
		if rng.Intn(4) == 0 {
			v[i] = specials[rng.Intn(len(specials))]
		} else {
			v[i] = rng.NormFloat64()
		}
	}
	return v
}

// kernelScalars are the rotation pairs (c, s) and axpy multipliers the
// kernel oracles apply: both signs of each, zeros, and scales that
// push products into the subnormal range.
var kernelScalars = [][2]float64{
	{0.8, 0.6}, {-0.8, 0.6}, {0.8, -0.6}, {-0.8, -0.6},
	{1, 0}, {1, math.Copysign(0, -1)}, {0, 1},
	{0.9999999999999999, 1.4901161193847656e-08},
	{-1e-160, 1e-160},
}

// sameKernelBits is sameBits, except that any NaN matches any NaN.
// Go leaves the payload of a NaN sum to the operand order the compiler
// picks for the commutative add, and that order differs between
// compilations of the same expression: axpyGo's add takes the product
// as its first operand, while the loop Mul inlined before took dst, as
// the assembly does. Every other result must match bit for bit, signed
// zeros included.
func sameKernelBits(got, want []float64) int {
	if len(got) != len(want) {
		return 0
	}
	for i := range want {
		if math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// unaligned returns v copied into a buffer at a one-element offset,
// so the vector loads straddle cache lines, with a NaN guard after it.
func unaligned(v []float64) []float64 {
	buf := make([]float64, len(v)+2)
	copy(buf[1:], v)
	buf[len(v)+1] = math.NaN()
	return buf[1 : len(v)+1]
}

// TestKernelRotateRowsMatchesGo: on every length 0-67, so every tail
// of the four-wide loop is covered, the AVX2 rotation equals the Go
// loop bit for bit, and writes nothing past the rows.
func TestKernelRotateRowsMatchesGo(t *testing.T) {
	forceAVX2(t, true)
	rng := rand.New(rand.NewSource(23))
	for n := 0; n <= 67; n++ {
		for _, cs := range kernelScalars {
			x, y := kernelOperand(rng, n), kernelOperand(rng, n)
			wantP, wantQ := append([]float64(nil), x...), append([]float64(nil), y...)
			rotateRowsGo(wantP, wantQ, cs[0], cs[1])
			gotP, gotQ := unaligned(x), unaligned(y)
			rotateRows(gotP, gotQ, cs[0], cs[1])
			if i := sameKernelBits(gotP, wantP); i >= 0 {
				t.Fatalf("n=%d c=%v s=%v: rp[%d] = %v, Go %v", n, cs[0], cs[1], i, gotP[i], wantP[i])
			}
			if i := sameKernelBits(gotQ, wantQ); i >= 0 {
				t.Fatalf("n=%d c=%v s=%v: rq[%d] = %v, Go %v", n, cs[0], cs[1], i, gotQ[i], wantQ[i])
			}
			if !math.IsNaN(gotP[:n+1][n]) || !math.IsNaN(gotQ[:n+1][n]) {
				t.Fatalf("n=%d: rotateRows wrote past the rows", n)
			}
		}
	}
}

// TestKernelAxpyMatchesGo is TestKernelRotateRowsMatchesGo for axpy,
// with a source longer than the destination as Mul never passes but
// the contract allows.
func TestKernelAxpyMatchesGo(t *testing.T) {
	forceAVX2(t, true)
	rng := rand.New(rand.NewSource(24))
	for n := 0; n <= 67; n++ {
		for _, cs := range kernelScalars {
			for _, a := range cs {
				dst, src := kernelOperand(rng, n), kernelOperand(rng, n+1)
				want := append([]float64(nil), dst...)
				axpyGo(want, src, a)
				got := unaligned(dst)
				axpy(got, unaligned(src), a)
				if i := sameKernelBits(got, want); i >= 0 {
					t.Fatalf("n=%d a=%v: dst[%d] = %v, Go %v", n, a, i, got[i], want[i])
				}
				if !math.IsNaN(got[:n+1][n]) {
					t.Fatalf("n=%d: axpy wrote past dst", n)
				}
			}
		}
	}
}

// mulReference is Matrix.Mul before its inner loop became axpy, kept
// as its oracle.
func mulReference(m, other *Matrix) *Matrix {
	out := NewMatrix(m.Rows, other.Cols)
	for i := 0; i < m.Rows; i++ {
		mi := m.Data[i*m.Cols : (i+1)*m.Cols]
		oi := out.Data[i*out.Cols : (i+1)*out.Cols]
		for k := 0; k < m.Cols; k++ {
			a := mi[k]
			if a == 0 {
				continue
			}
			ok := other.Data[k*other.Cols : (k+1)*other.Cols]
			for j := range oi {
				oi[j] += a * ok[j]
			}
		}
	}
	return out
}

// TestKernelMulMatchesReference checks Mul against mulReference bit
// for bit on both kernel paths: square products on both sides of the
// power of two TCA uses (with zeros to take the a == 0 skip), the
// rectangular shapes CORAL and TCA's projection multiply, and the RBF
// kernel times itself.
func TestKernelMulMatchesReference(t *testing.T) {
	withZeros := func(m *Matrix, seed int64) *Matrix {
		rng := rand.New(rand.NewSource(seed))
		for i := range m.Data {
			if rng.Intn(5) == 0 {
				m.Data[i] = 0
			}
		}
		return m
	}
	type tc struct {
		name string
		a, b *Matrix
	}
	var cases []tc
	for _, n := range []int{1, 3, 255, 256} {
		cases = append(cases, tc{fmt.Sprintf("square %d", n),
			withZeros(randomMatrix(n, n, int64(n)), int64(n)), randomMatrix(n, n, int64(n)+1)})
	}
	rbf := rbfKernel(256, 4, 0.25, 5)
	cases = append(cases,
		tc{"500x11 * 11x11", randomMatrix(500, 11, 1), randomMatrix(11, 11, 2)},
		tc{"256x256 * 256x4", rbf, randomMatrix(256, 4, 3)},
		tc{"RBF kernel 256 squared", rbf, rbf},
	)
	eachKernelPath(t, func(t *testing.T) {
		for _, tc := range cases {
			got, want := tc.a.Mul(tc.b), mulReference(tc.a, tc.b)
			if got.Rows != want.Rows || got.Cols != want.Cols {
				t.Fatalf("%s: shape %dx%d, reference %dx%d", tc.name, got.Rows, got.Cols, want.Rows, want.Cols)
			}
			if i := sameBits(got.Data, want.Data); i >= 0 {
				t.Fatalf("%s: entry %d = %v, reference %v", tc.name, i, got.Data[i], want.Data[i])
			}
		}
	})
}

// TestKernelEigenSymPathsAgree solves the TCA system once with the Go
// kernels forced and once with the AVX2 kernels; eigenvalues and
// eigenvectors must agree bit for bit. Under -short (and so under the
// race detector) the system has 64 landmarks instead of 256.
func TestKernelEigenSymPathsAgree(t *testing.T) {
	n := 256
	if testing.Short() {
		n = 64
	}
	a := tcaSystem(t, n, n/2, 7)
	var vals [2][]float64
	var vecs [2]*Matrix
	for i, p := range kernelPaths {
		t.Run(p.name, func(t *testing.T) {
			forceAVX2(t, p.avx2)
			vals[i], vecs[i] = EigenSym(a)
		})
	}
	if vecs[1] == nil {
		return // no AVX2: nothing to compare
	}
	if i := sameBits(vals[1], vals[0]); i >= 0 {
		t.Fatalf("eigenvalue %d = %v on AVX2, %v on Go", i, vals[1][i], vals[0][i])
	}
	if i := sameBits(vecs[1].Data, vecs[0].Data); i >= 0 {
		t.Fatalf("eigenvector entry %d = %v on AVX2, %v on Go", i, vecs[1].Data[i], vecs[0].Data[i])
	}
}

// benchPaths runs f as one sub-benchmark per kernel path.
func benchPaths(b *testing.B, f func(b *testing.B)) {
	for _, p := range kernelPaths {
		b.Run(p.name, func(b *testing.B) {
			forceAVX2(b, p.avx2)
			f(b)
		})
	}
}

// BenchmarkEigenSymTCA256 solves the system TCA solves: 12 Jacobi
// sweeps at 256 landmarks.
func BenchmarkEigenSymTCA256(b *testing.B) {
	a := tcaSystem(b, 256, 128, 7)
	benchPaths(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			EigenSym(a)
		}
	})
}

func BenchmarkMatMul256(b *testing.B) {
	x, y := randomMatrix(256, 256, 1), randomMatrix(256, 256, 2)
	benchPaths(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			x.Mul(y)
		}
	})
}

func BenchmarkRotateRows256(b *testing.B) {
	rp, rq := randomMatrix(1, 256, 1).Data, randomMatrix(1, 256, 2).Data
	c, s := math.Cos(1e-3), math.Sin(1e-3)
	benchPaths(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rotateRows(rp, rq, c, s)
		}
	})
}
