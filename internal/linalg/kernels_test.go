package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// forceAVX2 sets the kernel path for the rest of the test. Forcing the
// assembly path on a CPU without AVX2 skips the test.
func forceAVX2(tb testing.TB, on bool) {
	tb.Helper()
	restore, ok := UseKernels(on)
	if !ok {
		tb.Skip("CPU lacks AVX2: only the Go kernels run here")
	}
	tb.Cleanup(restore)
}

// forceSigmoidFMA forces the AVX2+FMA sigmoid kernel for the rest of
// the test, and skips the test where it cannot run.
func forceSigmoidFMA(tb testing.TB) {
	tb.Helper()
	forceAVX2(tb, true)
	if !haveSigmoidFMA {
		tb.Skip("CPU lacks FMA, or math.Exp skips its FMA branch: only the scalar sigmoid runs here")
	}
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

// TestKernelReplayMatchesGo: on both paths and for 1-67 pending
// rotations, replay equals replayGo row by row, bit for bit, on rows of
// ±0, ±Inf, NaN and subnormals. The q run consecutively in stretches
// broken by gaps, so the kernel meets both its transposed four-step
// blocks and its single steps, and the 13 rows take the kernel's eight,
// replay4Go's four and replayGo's one. The rows around them, and the
// columns no rotation names, must come out untouched.
func TestKernelReplayMatchesGo(t *testing.T) {
	const rows, lo, cols, ld = 15, 1, 300, 303
	eachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(26))
		for k := 1; k <= 67; k++ {
			for trial := 0; trial < 4; trial++ {
				p := rng.Intn(cols)
				rots := make([]rotation, 0, k)
				for q := rng.Intn(3); len(rots) < k; q++ {
					if rng.Intn(6) == 0 {
						q += 1 + rng.Intn(3)
					}
					if q == p {
						continue
					}
					cs := kernelScalars[rng.Intn(len(kernelScalars))]
					if rng.Intn(2) == 0 {
						theta := rng.Float64() * 2 * math.Pi
						cs = [2]float64{math.Cos(theta), math.Sin(theta)}
					}
					rots = append(rots, rotation{q: q, c: cs[0], s: cs[1]})
				}
				d := kernelOperand(rng, rows*ld)
				want := append([]float64(nil), d...)
				for r := lo; r < rows-1; r++ {
					replayGo(want[r*ld:(r+1)*ld], p, rots)
				}
				replay(d, ld, p, lo, rows-1, rots)
				if i := sameKernelBits(d, want); i >= 0 {
					t.Fatalf("%d rotations, p=%d: d[%d][%d] = %v, Go %v", k, p, i/ld, i%ld, d[i], want[i])
				}
			}
		}
	})
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
				Axpy(got, unaligned(src), a)
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

// TestKernelEigenSymPathsAgree solves the TCA system, and a nearly
// diagonal matrix on which most rotations are skipped, once with the
// Go kernels forced and once with the AVX2 kernels; eigenvalues and
// eigenvectors must agree bit for bit. Under -short (and so under the
// race detector) the TCA system has 64 landmarks instead of 256.
func TestKernelEigenSymPathsAgree(t *testing.T) {
	n := 256
	if testing.Short() {
		n = 64
	}
	systems := []*Matrix{tcaSystem(t, n, n/2, 7), nearlyDiagonal(64, 9)}
	var vals [2][][]float64
	var vecs [2][]*Matrix
	for i, p := range kernelPaths {
		t.Run(p.name, func(t *testing.T) {
			forceAVX2(t, p.avx2)
			for _, a := range systems {
				v, w, _ := EigenSym(a)
				vals[i], vecs[i] = append(vals[i], v), append(vecs[i], w)
			}
		})
	}
	if vecs[1] == nil {
		return // no AVX2: nothing to compare
	}
	for k := range systems {
		if i := sameBits(vals[1][k], vals[0][k]); i >= 0 {
			t.Fatalf("system %d: eigenvalue %d = %v on AVX2, %v on Go", k, i, vals[1][k][i], vals[0][k][i])
		}
		if i := sameBits(vecs[1][k].Data, vecs[0][k].Data); i >= 0 {
			t.Fatalf("system %d: eigenvector entry %d = %v on AVX2, %v on Go", k, i, vecs[1][k].Data[i], vecs[0][k].Data[i])
		}
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

// sigmoidUnderflow is the largest z with z·log2e ≤ −1075.5, the
// cutoff of math.Exp's underflow path on amd64: there k =
// round(z·log2e) ≤ −1076, so k + 1023 < −52 and exp returns +0.
var sigmoidUnderflow = func() float64 {
	z := -1075.5 / math.Log2E
	for z*math.Log2E > -1075.5 {
		z = math.Nextafter(z, math.Inf(-1))
	}
	for math.Nextafter(z, 0)*math.Log2E <= -1075.5 {
		z = math.Nextafter(z, 0)
	}
	return z
}()

// sigmoidInRange are the edge inputs the kernel takes itself: signed
// zeros, ±708 and the float just inside it, subnormals and other tiny
// inputs whose exp rounds to 1, ±37, past which 1 + e rounds to 1,
// z > 708 up to +Inf, where Sigmoid is exactly 1, and z from the
// underflow cutoff down to −Inf, where it is exactly +0. Taken four at
// a time the last blocks mix those with ordinary lanes.
var sigmoidInRange = []float64{
	0, math.Copysign(0, -1), 708, -708,
	math.Nextafter(708, 0), math.Nextafter(-708, 0),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	3e-310, -2.5e-309, 1e-300, -1e-17, 37, -37, 0.5, -0.5,
	math.Nextafter(708, 709), 1.5, 1e300, -2,
	math.Inf(1), 709.8, -0.25, math.MaxFloat64,
	sigmoidUnderflow, math.Nextafter(sigmoidUnderflow, -1000), -746, 3,
	-1e300, -0.75, math.Inf(-1), -math.MaxFloat64,
}

// sigmoidOutOfRange are the inputs that send their block to Sigmoid:
// NaN, and the floats below −708 down to the float just above the
// underflow cutoff, whose exp takes math.Exp's denormal path.
var sigmoidOutOfRange = []float64{
	math.Nextafter(-708, -709), math.NaN(), -745.2, math.Nextafter(sigmoidUnderflow, 0),
}

// sigmoidOperand draws n sigmoid inputs: mostly normals at scales from
// 1 to 300, one in eight an in-range edge and one in forty an
// out-of-range input, so most blocks stay on the kernel.
func sigmoidOperand(rng *rand.Rand, n int) []float64 {
	scales := []float64{1, 10, 100, 300}
	z := make([]float64, n)
	for i := range z {
		switch r := rng.Intn(40); {
		case r == 0:
			z[i] = sigmoidOutOfRange[rng.Intn(len(sigmoidOutOfRange))]
		case r < 6:
			z[i] = sigmoidInRange[rng.Intn(len(sigmoidInRange))]
		default:
			z[i] = rng.NormFloat64() * scales[rng.Intn(len(scales))]
		}
	}
	return z
}

// TestKernelSigmoidMatchesScalar: on both paths and every length 0-67,
// Sigmoids equals Sigmoid bit for bit, NaN payloads included, on
// unaligned slices and in place, and writes nothing past dst.
func TestKernelSigmoidMatchesScalar(t *testing.T) {
	eachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(25))
		for n := 0; n <= 67; n++ {
			for trial := 0; trial < 20; trial++ {
				z := sigmoidOperand(rng, n)
				want := make([]float64, n)
				for i, v := range z {
					want[i] = Sigmoid(v)
				}
				got := unaligned(make([]float64, n))
				Sigmoids(got, unaligned(z))
				if i := sameBits(got, want); i >= 0 {
					t.Fatalf("n=%d: Sigmoids(%v) = %v, Sigmoid %v", n, z[i], got[i], want[i])
				}
				if !math.IsNaN(got[:n+1][n]) {
					t.Fatalf("n=%d: Sigmoids wrote past dst", n)
				}
				inPlace := append([]float64(nil), z...)
				Sigmoids(inPlace, inPlace)
				if i := sameBits(inPlace, want); i >= 0 {
					t.Fatalf("n=%d in place: Sigmoids(%v) = %v, Sigmoid %v", n, z[i], inPlace[i], want[i])
				}
			}
		}
	})
}

// TestKernelSigmoidEdges pins which blocks the kernel takes itself: a
// block of in-range edges is set by the kernel and matches Sigmoid,
// and one out-of-range lane anywhere in a block stops it there. It
// also checks the cutoff against math.Exp: +0 at the cutoff, and a
// denormal at −745.1, in the range left to Sigmoid.
func TestKernelSigmoidEdges(t *testing.T) {
	if e := math.Exp(sigmoidUnderflow); e != 0 || math.Signbit(e) {
		t.Fatalf("math.Exp(%v) = %v at the underflow cutoff, want +0", sigmoidUnderflow, e)
	}
	if e := math.Exp(-745.1); e == 0 {
		t.Fatalf("math.Exp(-745.1) = 0, want a denormal")
	}
	forceSigmoidFMA(t)
	for i := 0; i+4 <= len(sigmoidInRange); i += 4 {
		z := sigmoidInRange[i : i+4]
		got := make([]float64, 4)
		if n := sigmoidAVX2FMA(got, z); n != 4 {
			t.Fatalf("kernel set %d of %v, want 4", n, z)
		}
		for k, v := range z {
			if want := Sigmoid(v); math.Float64bits(got[k]) != math.Float64bits(want) {
				t.Fatalf("kernel(%v) = %v, Sigmoid %v", v, got[k], want)
			}
		}
	}
	for _, bad := range sigmoidOutOfRange {
		for lane := 0; lane < 4; lane++ {
			z := []float64{1, 2, 3, 4, -1, -2, -3, -4}
			z[4+lane] = bad
			if n := sigmoidAVX2FMA(make([]float64, 8), z); n != 4 {
				t.Fatalf("kernel set %d of %v, want 4", n, z)
			}
		}
	}
}

// TestKernelSigmoidRandomInputs checks the kernel against Sigmoid on
// 1<<20 inputs (1<<16 under -short): uniform over [−708, 708], normals
// at several scales, and uniform over [−40, 40], where every digit of
// the result counts.
func TestKernelSigmoidRandomInputs(t *testing.T) {
	forceSigmoidFMA(t)
	n := 1 << 20
	if testing.Short() {
		n = 1 << 16
	}
	rng := rand.New(rand.NewSource(26))
	z := make([]float64, n)
	for i := range z {
		switch i % 3 {
		case 0:
			z[i] = (2*rng.Float64() - 1) * 708
		case 1:
			z[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(3)))
		default:
			z[i] = (2*rng.Float64() - 1) * 40
		}
	}
	got := make([]float64, n)
	Sigmoids(got, z)
	for i, v := range z {
		if want := Sigmoid(v); math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("Sigmoids(%v) = %v, Sigmoid %v", v, got[i], want)
		}
	}
}

// TestKernelSigmoidFollowsMathExp: the kernel is on exactly where
// math.Exp takes its FMA branch. On an AVX2+FMA CPU it is on by
// default. A child run of TestKernelSigmoidRandomInputs with
// GODEBUG=cpu.fma=off, which sends math.Exp down its plain branch,
// must find the probe failing and the kernel off, or else the kernel
// and Sigmoid disagree there. (A GOAMD64=v3 build ignores that
// setting: its math.Exp keeps FMA, and so does the kernel.)
func TestKernelSigmoidFollowsMathExp(t *testing.T) {
	if !haveAVX2() || !haveFMA() {
		t.Skip("CPU lacks AVX2 or FMA")
	}
	if strings.Contains(os.Getenv("GODEBUG"), "cpu.") {
		t.Skip("GODEBUG overrides CPU features")
	}
	if !haveSigmoidFMA {
		t.Fatal("sigmoid kernel off on an AVX2+FMA CPU: it disagrees with math.Exp on the probe")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestKernelSigmoidRandomInputs$", "-test.short")
	cmd.Env = append(os.Environ(), "GODEBUG=cpu.fma=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child run with GODEBUG=cpu.fma=off: %v\n%s", err, out)
	}
}

// FuzzSigmoid checks the kernel against Sigmoid on arbitrary float64
// bit patterns: one block of the input and three neighbours, and a
// tail lane.
func FuzzSigmoid(f *testing.F) {
	for _, v := range append(append([]float64(nil), sigmoidInRange...), sigmoidOutOfRange...) {
		f.Add(math.Float64bits(v))
	}
	forceSigmoidFMA(f)
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		z := []float64{v, -v, v / 2, math.Nextafter(v, 0), v * 3}
		got := make([]float64, len(z))
		Sigmoids(got, z)
		for i, zi := range z {
			if want := Sigmoid(zi); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("Sigmoids(%v) = %v, Sigmoid %v", zi, got[i], want)
			}
		}
	})
}

// BenchmarkSigmoid sets 1024 sigmoids of normals at scale 5, the range
// of LogReg's and Platt scaling's linear scores.
func BenchmarkSigmoid(b *testing.B) {
	rng := rand.New(rand.NewSource(27))
	z := make([]float64, 1024)
	for i := range z {
		z[i] = 5 * rng.NormFloat64()
	}
	dst := make([]float64, len(z))
	benchPaths(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Sigmoids(dst, z)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(z)), "ns/elem")
	})
}
