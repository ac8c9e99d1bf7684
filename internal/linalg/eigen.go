package linalg

import (
	"math"
	"sort"
)

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
func EigenSym(a *Matrix) (values []float64, vectors *Matrix) {
	a.mustSquare()
	n := a.Rows
	if n == 0 {
		return nil, NewMatrix(0, 0)
	}
	// d is the working copy with row stride ld = n+eigenPad. At the
	// power-of-two n TCA uses (256), an unpadded stride of 2 KiB puts
	// every element of a column walk in the same couple of L1 sets; one
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
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := maxAbsOffDiagStrided(d, n, ld)
		if off < 1e-12 {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
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
				// Apply rotation to columns p and q of d, then to rows
				// p and q.
				for k := p; k < n*ld; k += ld {
					akp := d[k]
					akq := d[k+q-p]
					d[k] = c*akp - s*akq
					d[k+q-p] = s*akp + c*akq
				}
				rotateRows(d[p*ld:p*ld+n], d[q*ld:q*ld+n], c, s)
				// Accumulate eigenvectors.
				rotateRows(vt[p*n:(p+1)*n], vt[q*n:(q+1)*n], c, s)
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
	return values, vectors
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
	vals, q := EigenSym(a)
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
// eigenvalues.
func TopEigenvectors(a *Matrix, k int) ([]float64, *Matrix) {
	vals, vecs := EigenSym(a)
	if k > len(vals) {
		k = len(vals)
	}
	out := NewMatrix(a.Rows, k)
	for j := 0; j < k; j++ {
		for i := 0; i < a.Rows; i++ {
			out.Set(i, j, vecs.At(i, j))
		}
	}
	return vals[:k], out
}
