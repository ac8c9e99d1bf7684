//go:build !amd64

package linalg

func haveAVX2() bool { return false }

func haveFMA() bool { return false }

// The AVX2 kernels exist only on amd64. Elsewhere useAVX2 is false and
// UseKernels refuses to set it, so these stand-ins only satisfy the
// compiler.

func rotateRowsAVX2(rp, rq []float64, c, s float64) { rotateRowsGo(rp, rq, c, s) }

func replayAVX2(d []float64, ld, p int, rots []rotation) {
	for r := 0; r < replayRows; r++ {
		replayGo(d[r*ld:(r+1)*ld], p, rots)
	}
}

func axpyAVX2(dst, src []float64, a float64) { axpyGo(dst, src, a) }

func sigmoidAVX2FMA(dst, z []float64) int { return 0 }
