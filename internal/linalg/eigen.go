package linalg

import (
	"math"
	"sort"
)

// EigenWork counts the work of one EigenSym solve: the Jacobi sweeps it
// ran and the rotations it applied (rotations skipped because a_pq was
// already negligible do not count). Both depend only on the input.
type EigenWork struct {
	Sweeps, Rotations int
}

// EigenSym computes all eigenvalues and eigenvectors of a symmetric
// matrix using the cyclic Jacobi rotation method. Eigenpairs are
// returned sorted by descending eigenvalue; column j of the returned
// vectors matrix is the eigenvector of values[j]. The input is not
// modified.
//
// The Jacobi method is quadratically convergent and unconditionally
// stable for symmetric input, which covers every use in this
// repository (covariances and the symmetric TCA system after
// symmetrisation).
func EigenSym(a *Matrix) (values []float64, vectors *Matrix, work EigenWork) {
	a.mustSquare()
	n := a.Rows
	if n == 0 {
		return nil, NewMatrix(0, 0), work
	}
	// d is the working copy with row stride ld = n+eigenPad. At the
	// power-of-two n TCA uses (256), an unpadded stride of 2 KiB puts
	// the same column of every row in the same couple of L1 sets, where
	// the window's column steps and the replay's eight rows read it; one
	// cache line of padding per row spreads them over all sets.
	ld := n + eigenPad
	d := make([]float64, n*ld)
	for i := 0; i < n; i++ {
		copy(d[i*ld:i*ld+n], a.Data[i*n:(i+1)*n])
	}
	// vt holds the eigenvector accumulator transposed: row p of vt is
	// column p of V, so rotating columns p and q of V is a sweep over
	// two contiguous rows.
	vt := Identity(n).Data
	// The column step of rotation (p, q) changes only d[r][p] and
	// d[r][q] of each row r, and the rotations of pivot row p reach any
	// other row r only through those column steps and, once, through the
	// row step of (p, r). So a row's column steps may wait, and be
	// replayed in order as one pass along the row, as long as they are
	// all in before the row is next read. Row p and a window of
	// replayRows rows that holds the current q take their column steps
	// at once; a row is brought up to date as it enters the window, and
	// the rows above p and those the window has passed catch up when
	// pivot row p ends. Every element sees the same operations in the
	// same order as in one column walk per rotation.
	rots := make([]rotation, 0, n)
	var behind []window
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := maxAbsOffDiagStrided(d, n, ld)
		if off < 1e-12 {
			break
		}
		work.Sweeps++
		for p := 0; p < n-1; p++ {
			rots, behind = rots[:0], behind[:0]
			win := window{lo: p + 1, hi: p + 1}
			for q := p + 1; q < n; q++ {
				if q == win.hi {
					if win.hi > win.lo {
						win.done = len(rots)
						behind = append(behind, win)
					}
					win = window{lo: q, hi: min(q+replayRows, n)}
					replay(d, ld, p, win.lo, win.hi, rots)
				}
				apq := d[p*ld+q]
				if math.Abs(apq) < 1e-15 {
					continue
				}
				app := d[p*ld+p]
				aqq := d[q*ld+q]
				// Compute the Jacobi rotation that zeroes a_pq.
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				// Apply rotation to columns p and q of row p and of the
				// window, which holds row q, then to rows p and q.
				rotatePair(d[p*ld:p*ld+n], p, q, c, s)
				for r := win.lo; r < win.hi; r++ {
					rotatePair(d[r*ld:r*ld+n], p, q, c, s)
				}
				rotateRows(d[p*ld:p*ld+n], d[q*ld:q*ld+n], c, s)
				// Accumulate eigenvectors.
				rotateRows(vt[p*n:(p+1)*n], vt[q*n:(q+1)*n], c, s)
				rots = append(rots, rotation{q: q, c: c, s: s})
			}
			work.Rotations += len(rots)
			replay(d, ld, p, 0, p, rots)
			for _, w := range behind {
				replay(d, ld, p, w.lo, w.hi, rots[w.done:])
			}
		}
	}
	// Extract and sort by descending eigenvalue.
	type pair struct {
		val float64
		idx int
	}
	pairs := make([]pair, n)
	for i := 0; i < n; i++ {
		pairs[i] = pair{d[i*ld+i], i}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].val > pairs[j].val })
	values = make([]float64, n)
	vectors = NewMatrix(n, n)
	for j, p := range pairs {
		values[j] = p.val
		col := vt[p.idx*n : (p.idx+1)*n]
		for i, x := range col {
			vectors.Data[i*n+j] = x
		}
	}
	return values, vectors, work
}

// rotation is one Jacobi rotation (p, q) of the current pivot row p,
// kept so that its column step can be replayed on a row later.
type rotation struct {
	q    int
	c, s float64
}

// window is a run of rows [lo, hi) whose column steps EigenSym applies
// at once while q is inside it; done counts the rotations of the pivot
// row the rows had taken when q left it.
type window struct {
	lo, hi, done int
}

// replayRows is the width of EigenSym's window and of the AVX2 replay
// kernel: eight rows, two four-lane registers.
const replayRows = 8

// rotatePair applies the column step of the rotation (c, s) to one row:
// row[p] ← c·row[p] − s·row[q] and row[q] ← s·row[p] + c·row[q].
func rotatePair(row []float64, p, q int, c, s float64) {
	x, y := row[p], row[q]
	row[p] = c*x - s*y
	row[q] = s*x + c*y
}

// eigenPad is the row padding of EigenSym's working copy in float64s:
// one 64-byte cache line.
const eigenPad = 8

// maxAbsOffDiagStrided returns the largest |a_ij|, i != j, of the n×n
// matrix stored in d with row stride ld; it is EigenSym's convergence
// criterion.
func maxAbsOffDiagStrided(d []float64, n, ld int) float64 {
	best := 0.0
	for i := 0; i < n; i++ {
		row := d[i*ld : i*ld+n]
		for j, x := range row {
			if j == i {
				continue
			}
			if a := math.Abs(x); a > best {
				best = a
			}
		}
	}
	return best
}

// SymPow returns Aᵖ for a symmetric positive semi-definite A computed
// through its eigendecomposition: Q diag(λᵖ) Qᵀ. Eigenvalues below eps
// are clamped to eps before the power is applied, which makes negative
// powers (inverse square roots) well defined on rank-deficient
// covariances.
func SymPow(a *Matrix, p, eps float64) *Matrix {
	vals, q, _ := EigenSym(a)
	n := a.Rows
	d := NewMatrix(n, n)
	for i, v := range vals {
		if v < eps {
			v = eps
		}
		d.Set(i, i, math.Pow(v, p))
	}
	return q.Mul(d).Mul(q.T())
}

// TopEigenvectors returns the k eigenvectors (as matrix columns) with
// the largest eigenvalues of the symmetric matrix a, together with the
// eigenvalues and the work of the solve.
func TopEigenvectors(a *Matrix, k int) ([]float64, *Matrix, EigenWork) {
	vals, vecs, work := EigenSym(a)
	if k > len(vals) {
		k = len(vals)
	}
	out := NewMatrix(a.Rows, k)
	for j := 0; j < k; j++ {
		for i := 0; i < a.Rows; i++ {
			out.Set(i, j, vecs.At(i, j))
		}
	}
	return vals[:k], out, work
}
