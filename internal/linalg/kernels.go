package linalg

// useAVX2 routes rotateRows and axpy through the AVX2 assembly
// kernels. It is set once from the CPU's feature bits (always false
// off amd64); tests flip it to compare the two paths.
var useAVX2 = haveAVX2()

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

// axpy adds a·src to dst element by element; src must be at least as
// long as dst.
func axpy(dst, src []float64, a float64) {
	src = src[:len(dst)]
	if useAVX2 {
		axpyAVX2(dst, src, a)
		return
	}
	axpyGo(dst, src, a)
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

// axpyGo is axpy on every CPU without AVX2.
func axpyGo(dst, src []float64, a float64) {
	src = src[:len(dst)]
	for j := range dst {
		dst[j] += a * src[j]
	}
}
