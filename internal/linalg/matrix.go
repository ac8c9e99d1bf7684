// Package linalg implements the dense linear algebra needed by the
// feature-based transfer learning baselines (TCA and CORAL): matrix
// arithmetic, covariance estimation, Cholesky and LU factorisations,
// and a cyclic Jacobi eigensolver for symmetric matrices, from which
// matrix inverse and fractional powers (square roots) are derived.
//
// Matrices are small (the ER feature space has 4-11 dimensions, and
// TCA kernels are built on subsampled instance sets), so clarity is
// favoured over blocked kernels. The two loops TCA spends most of its
// time in, the Jacobi row rotation and Mul's row update, run through
// AVX2 assembly on amd64 CPUs that have it (kernels.go); both paths
// give the same bits.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// NewMatrix allocates a zero matrix of the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices; all rows must have equal
// length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("linalg: ragged rows: row %d has %d cols, want %d", i, len(r), m.Cols))
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (shared storage).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// Mul returns the matrix product m * other.
func (m *Matrix) Mul(other *Matrix) *Matrix {
	if m.Cols != other.Rows {
		panic(fmt.Sprintf("linalg: dimension mismatch %dx%d * %dx%d", m.Rows, m.Cols, other.Rows, other.Cols))
	}
	out := NewMatrix(m.Rows, other.Cols)
	for i := 0; i < m.Rows; i++ {
		mi := m.Data[i*m.Cols : (i+1)*m.Cols]
		oi := out.Data[i*out.Cols : (i+1)*out.Cols]
		for k := 0; k < m.Cols; k++ {
			a := mi[k]
			if a == 0 {
				continue
			}
			Axpy(oi, other.Data[k*other.Cols:(k+1)*other.Cols], a)
		}
	}
	return out
}

// Add returns m + other.
func (m *Matrix) Add(other *Matrix) *Matrix {
	m.mustSameShape(other)
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] += other.Data[i]
	}
	return out
}

// Sub returns m - other.
func (m *Matrix) Sub(other *Matrix) *Matrix {
	m.mustSameShape(other)
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] -= other.Data[i]
	}
	return out
}

// MulVec returns the matrix-vector product m * v.
func (m *Matrix) MulVec(v []float64) []float64 {
	if m.Cols != len(v) {
		panic(fmt.Sprintf("linalg: dimension mismatch %dx%d * vec(%d)", m.Rows, m.Cols, len(v)))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		s := 0.0
		for j, x := range v {
			s += row[j] * x
		}
		out[i] = s
	}
	return out
}

// FrobeniusNorm returns sqrt(sum of squared entries).
func (m *Matrix) FrobeniusNorm() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

func (m *Matrix) mustSameShape(other *Matrix) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic(fmt.Sprintf("linalg: shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, other.Rows, other.Cols))
	}
}

func (m *Matrix) mustSquare() {
	if m.Rows != m.Cols {
		panic(fmt.Sprintf("linalg: matrix %dx%d is not square", m.Rows, m.Cols))
	}
}

// Mean returns the column means of m.
func (m *Matrix) Mean() []float64 {
	mu := make([]float64, m.Cols)
	if m.Rows == 0 {
		return mu
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			mu[j] += v
		}
	}
	for j := range mu {
		mu[j] /= float64(m.Rows)
	}
	return mu
}

// Covariance returns the (biased, 1/n) covariance matrix of the rows of
// m, with an optional ridge term added to the diagonal for numerical
// stability. A zero-row matrix yields ridge * I.
func Covariance(m *Matrix, ridge float64) *Matrix {
	d := m.Cols
	cov := NewMatrix(d, d)
	if m.Rows > 0 {
		mu := m.Mean()
		for i := 0; i < m.Rows; i++ {
			row := m.Row(i)
			for a := 0; a < d; a++ {
				da := row[a] - mu[a]
				if da == 0 {
					continue
				}
				for b := a; b < d; b++ {
					cov.Data[a*d+b] += da * (row[b] - mu[b])
				}
			}
		}
		inv := 1 / float64(m.Rows)
		for a := 0; a < d; a++ {
			for b := a; b < d; b++ {
				v := cov.Data[a*d+b] * inv
				cov.Data[a*d+b] = v
				cov.Data[b*d+a] = v
			}
		}
	}
	for a := 0; a < d; a++ {
		cov.Data[a*d+a] += ridge
	}
	return cov
}

// ErrSingular is returned when a factorisation or solve meets a
// (numerically) singular matrix.
var ErrSingular = errors.New("linalg: matrix is singular")

// Cholesky computes the lower-triangular L with A = L Lᵀ for a
// symmetric positive definite A. It returns ErrSingular if A is not
// positive definite.
func Cholesky(a *Matrix) (*Matrix, error) {
	a.mustSquare()
	n := a.Rows
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			for k := 0; k < j; k++ {
				sum -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if sum <= 0 {
					return nil, ErrSingular
				}
				l.Set(i, i, math.Sqrt(sum))
			} else {
				l.Set(i, j, sum/l.At(j, j))
			}
		}
	}
	return l, nil
}

// LUSolve solves A x = b by Gaussian elimination with partial
// pivoting. A and b are not modified.
func LUSolve(a *Matrix, b []float64) ([]float64, error) {
	a.mustSquare()
	n := a.Rows
	if len(b) != n {
		panic("linalg: rhs length mismatch")
	}
	// Augmented working copies.
	m := a.Clone()
	x := make([]float64, n)
	copy(x, b)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		p := col
		best := math.Abs(m.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m.At(r, col)); v > best {
				best, p = v, r
			}
		}
		if best < 1e-14 {
			return nil, ErrSingular
		}
		if p != col {
			for j := 0; j < n; j++ {
				m.Data[col*n+j], m.Data[p*n+j] = m.Data[p*n+j], m.Data[col*n+j]
			}
			x[col], x[p] = x[p], x[col]
		}
		pivot := m.At(col, col)
		for r := col + 1; r < n; r++ {
			f := m.At(r, col) / pivot
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				m.Set(r, j, m.At(r, j)-f*m.At(col, j))
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= m.At(i, j) * x[j]
		}
		x[i] = s / m.At(i, i)
	}
	return x, nil
}

// ForwardSolveMatrix solves L X = B for a lower-triangular L with
// non-zero diagonal, row by row in O(n²) per column of B.
func ForwardSolveMatrix(l, b *Matrix) (*Matrix, error) {
	l.mustSquare()
	n := l.Rows
	if b.Rows != n {
		panic("linalg: rhs row count mismatch")
	}
	// Row i of X is row i of B less l_ik times row k of X for each
	// k < i in turn, divided by l_ii. Axpy subtracts along a whole row:
	// s + (−l_ik)·x rounds as s − l_ik·x does, so every entry sees the
	// subtractions of a column-by-column solve in the same order.
	x := b.Clone()
	if b.Cols == 0 {
		return x, nil
	}
	for i := 0; i < n; i++ {
		d := l.Data[i*n+i]
		if math.Abs(d) < 1e-14 {
			return nil, ErrSingular
		}
		xi := x.Row(i)
		for k, lik := range l.Data[i*n : i*n+i] {
			Axpy(xi, x.Row(k), -lik)
		}
		for j := range xi {
			xi[j] /= d
		}
	}
	return x, nil
}

// BackSolveMatrix solves U X = B for an upper-triangular U with
// non-zero diagonal.
func BackSolveMatrix(u, b *Matrix) (*Matrix, error) {
	u.mustSquare()
	n := u.Rows
	if b.Rows != n {
		panic("linalg: rhs row count mismatch")
	}
	x := NewMatrix(n, b.Cols)
	for c := 0; c < b.Cols; c++ {
		for i := n - 1; i >= 0; i-- {
			s := b.At(i, c)
			for k := i + 1; k < n; k++ {
				s -= u.At(i, k) * x.At(k, c)
			}
			d := u.At(i, i)
			if math.Abs(d) < 1e-14 {
				return nil, ErrSingular
			}
			x.Set(i, c, s/d)
		}
	}
	return x, nil
}
