package linalg

import "math"

// useAVX2 routes rotateRows and Axpy through the AVX2 assembly
// kernels. It is set once from the CPU's feature bits (always false
// off amd64); tests flip it through UseKernels to compare the paths.
var useAVX2 = haveAVX2()

// haveSigmoidFMA reports whether the AVX2+FMA sigmoid kernel may run:
// the CPU has AVX2 and FMA, and the kernel agrees bit for bit with
// Sigmoid on a start-up probe. The kernel follows math.Exp's FMA branch,
// so the probe fails, and the kernel stays off, wherever math.Exp
// takes its other branch (GODEBUG=cpu.fma=off, say).
var haveSigmoidFMA = useAVX2 && haveFMA() && sigmoidKernelAgrees()

// useSigmoidFMA routes Sigmoids through the AVX2+FMA kernel.
var useSigmoidFMA = haveSigmoidFMA

// UseKernels selects the AVX2 kernels (avx2 true) or the Go loops for
// every routine in this package, and returns a function that restores
// the previous choice. It reports ok false, and changes nothing, when
// asked for kernels the CPU lacks. Only tests and benchmarks call it,
// to pin one path; the default is the fastest path the CPU offers.
func UseKernels(avx2 bool) (restore func(), ok bool) {
	if avx2 && !haveAVX2() {
		return func() {}, false
	}
	oldAVX2, oldFMA := useAVX2, useSigmoidFMA
	useAVX2, useSigmoidFMA = avx2, avx2 && haveSigmoidFMA
	return func() { useAVX2, useSigmoidFMA = oldAVX2, oldFMA }, true
}

// rotateRows applies the Jacobi rotation (c, s) to the row pair
// (rp, rq): rp ← c·rp − s·rq and rq ← s·rp + c·rq, element by element.
func rotateRows(rp, rq []float64, c, s float64) {
	rq = rq[:len(rp)]
	if useAVX2 {
		rotateRowsAVX2(rp, rq, c, s)
		return
	}
	rotateRowsGo(rp, rq, c, s)
}

// replay brings rows [lo, hi) of EigenSym's working copy d, row stride
// ld, up to date with rots, rotations of pivot row p: on each row, in
// order, row[p] ← c·row[p] − s·row[q] and row[q] ← s·row[p] + c·row[q].
// Every q must be below ld and differ from p; the kernel does not check.
// Rows go through the AVX2 kernel eight at a time and the Go loops four
// and one at a time; every row sees the same operations either way.
func replay(d []float64, ld, p, lo, hi int, rots []rotation) {
	if len(rots) == 0 {
		return
	}
	r := lo
	if useAVX2 {
		for ; r+replayRows <= hi; r += replayRows {
			replayAVX2(d[r*ld:(r+replayRows)*ld], ld, p, rots)
		}
	}
	for ; r+4 <= hi; r += 4 {
		replay4Go(d[r*ld:(r+1)*ld], d[(r+1)*ld:(r+2)*ld], d[(r+2)*ld:(r+3)*ld], d[(r+3)*ld:(r+4)*ld], p, rots)
	}
	for ; r < hi; r++ {
		replayGo(d[r*ld:(r+1)*ld], p, rots)
	}
}

// Axpy adds a·src to dst element by element (dst[j] += a * src[j]);
// src must be at least as long as dst. Every lane rounds as that Go
// statement does.
func Axpy(dst, src []float64, a float64) {
	src = src[:len(dst)]
	if useAVX2 {
		axpyAVX2(dst, src, a)
		return
	}
	axpyGo(dst, src, a)
}

// Sigmoid is the logistic function 1/(1+e^−z), evaluated through
// math.Exp of −|z| so that neither branch overflows.
func Sigmoid(z float64) float64 {
	if z >= 0 {
		e := math.Exp(-z)
		return 1 / (1 + e)
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// Sigmoids sets dst[i] = Sigmoid(z[i]) for every i, bit for bit; dst
// must be at least as long as z and may be z itself. The kernel takes
// four lanes at a time and stops at a block holding a lane with
// z < −708 or NaN, whose exp needs math.Exp's range checks; that
// block, and the tail, go through Sigmoid. Lanes with z > 708, +Inf
// included, stay in the kernel, where Sigmoid is exactly 1.
func Sigmoids(dst, z []float64) {
	dst = dst[:len(z)]
	i := 0
	if useSigmoidFMA {
		for {
			i += sigmoidAVX2FMA(dst[i:], z[i:])
			if len(z)-i < 4 {
				break
			}
			for end := i + 4; i < end; i++ {
				dst[i] = Sigmoid(z[i])
			}
		}
	}
	for ; i < len(z); i++ {
		dst[i] = Sigmoid(z[i])
	}
}

// sigmoidKernelAgrees runs the AVX2+FMA kernel on 256 inputs spread
// over [−36.8, 36.5] and reports whether every lane equals Sigmoid bit
// for bit. The FMA and the plain branch of math.Exp round some of
// those inputs differently, so a kernel that follows the other branch
// than math.Exp fails here (TestKernelSigmoidFollowsMathExp checks it).
func sigmoidKernelAgrees() bool {
	z := make([]float64, 256)
	for i := range z {
		z[i] = float64(i-128) * 0.2871
	}
	got := make([]float64, len(z))
	if sigmoidAVX2FMA(got, z) != len(z) {
		return false
	}
	for i, v := range z {
		if math.Float64bits(got[i]) != math.Float64bits(Sigmoid(v)) {
			return false
		}
	}
	return true
}

// rotateRowsGo is rotateRows on every CPU without AVX2. The assembly
// kernel computes each lane with the same operations in the same
// order, so both paths agree bit for bit.
func rotateRowsGo(rp, rq []float64, c, s float64) {
	rq = rq[:len(rp)]
	for k, x := range rp {
		y := rq[k]
		rp[k] = c*x - s*y
		rq[k] = s*x + c*y
	}
}

// replayGo replays rots on one row. Each step waits for the previous
// one through row[p], so replay4Go interleaves four rows.
func replayGo(row []float64, p int, rots []rotation) {
	x := row[p]
	for _, rot := range rots {
		y := row[rot.q]
		row[rot.q] = rot.s*x + rot.c*y
		x = rot.c*x - rot.s*y
	}
	row[p] = x
}

// replay4Go is replayGo on four rows at once.
func replay4Go(r0, r1, r2, r3 []float64, p int, rots []rotation) {
	x0, x1, x2, x3 := r0[p], r1[p], r2[p], r3[p]
	for _, rot := range rots {
		q, c, s := rot.q, rot.c, rot.s
		y0, y1, y2, y3 := r0[q], r1[q], r2[q], r3[q]
		r0[q], r1[q], r2[q], r3[q] = s*x0+c*y0, s*x1+c*y1, s*x2+c*y2, s*x3+c*y3
		x0, x1, x2, x3 = c*x0-s*y0, c*x1-s*y1, c*x2-s*y2, c*x3-s*y3
	}
	r0[p], r1[p], r2[p], r3[p] = x0, x1, x2, x3
}

// axpyGo is Axpy on every CPU without AVX2.
func axpyGo(dst, src []float64, a float64) {
	src = src[:len(dst)]
	for j := range dst {
		dst[j] += a * src[j]
	}
}
