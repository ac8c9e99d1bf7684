package linalg

// The AVX2 kernels in kernels_amd64.s multiply and then add or
// subtract in separate instructions (no FMA), with the operands in the
// order the Go expressions name them, so every lane rounds exactly as
// rotateRowsGo, replayGo and axpyGo do. The sigmoid kernel is the exception: it
// uses FMA exactly where math.Exp's own amd64 assembly does.

//go:noescape
func rotateRowsAVX2(rp, rq []float64, c, s float64)

// replayAVX2 is replay on the eight rows that start d, row stride ld:
// each lane of two four-lane registers carries one row's element p
// through the steps of rots, gathering and scattering element q.
//
//go:noescape
func replayAVX2(d []float64, ld, p int, rots []rotation)

//go:noescape
func axpyAVX2(dst, src []float64, a float64)

// sigmoidAVX2FMA sets dst[i] = Sigmoid(z[i]) four lanes at a time and
// returns how many it set: a multiple of four, short of len(z) by the
// tail or at the first block holding a NaN lane or a lane whose exp
// takes math.Exp's denormal path (below −708, above the underflow
// cutoff).
//
//go:noescape
func sigmoidAVX2FMA(dst, z []float64) int

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// haveAVX2 reports whether the CPU implements AVX2 and the operating
// system saves the YMM registers across context switches.
func haveAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	// XCR0 bits 1 and 2: the OS enabled XMM and YMM state.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

// haveFMA reports whether the CPU implements FMA3.
func haveFMA() bool {
	_, _, ecx1, _ := cpuid(1, 0)
	const fma = 1 << 12
	return ecx1&fma != 0
}
