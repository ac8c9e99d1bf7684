//go:build !amd64

package linalg

func haveAVX2() bool { return false }

// The AVX2 kernels exist only on amd64; useAVX2 is false elsewhere, so
// these stand-ins are reached only by a test forcing the fast path.

func rotateRowsAVX2(rp, rq []float64, c, s float64) { rotateRowsGo(rp, rq, c, s) }

func axpyAVX2(dst, src []float64, a float64) { axpyGo(dst, src, a) }
