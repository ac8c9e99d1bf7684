package transfer

import (
	"fmt"
	"math"
	"math/rand"

	"transer/internal/linalg"
	"transer/internal/ml"
	"transer/internal/obs"
)

// TCA implements Transfer Component Analysis (Pan et al., 2011): learn
// a low-dimensional latent space minimising the maximum mean
// discrepancy (MMD) between source and target while preserving data
// variance, then train the classifier in that space.
//
// The transfer components solve the generalized eigenproblem
//
//	(K L K + µI) W = K H K W Λ⁻¹,
//
// where K is the kernel matrix over all instances, L the MMD
// coefficient matrix, and H the centering matrix. The exact method is
// O(n²) memory and O(n³) time in the number of instances — the reason
// the paper's TCA runs exceeded 200 GB on mid-sized ER data sets. This
// implementation uses a landmark (Nyström-style) subsample: the
// eigenproblem is solved over MaxLandmarks instances and all rows are
// projected through their kernel values against the landmarks, keeping
// memory bounded while preserving the method's behaviour.
//
// The latent space has min(m, 4) components for m features, the
// trade-off parameter µ is 1 and the RBF kernel coefficient is 1/m.
type TCA struct {
	// MaxLandmarks bounds the kernel matrix size; 0 means 256.
	MaxLandmarks int
	// Seed drives the landmark subsample.
	Seed int64
}

// Name implements Method.
func (TCA) Name() string { return "TCA" }

// Prepare implements Method: landmarks and their kernel, the eigen
// solve, and the projection of the source and target rows, in stage
// spans kernel, eigen and project under sp. The eigen span carries the
// solve's Jacobi sweeps and rotations.
func (c TCA) Prepare(t *Task, sp *obs.Span) (Prepared, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	m := t.Dim()
	comp := min(m, 4)
	maxL := c.MaxLandmarks
	if maxL == 0 {
		maxL = 256
	}
	gamma := 1 / float64(m)

	// Landmark selection: an even split of source and target rows.
	stage := sp.Child("kernel")
	defer func() { stage.End() }()
	rng := rand.New(rand.NewSource(c.Seed))
	half := maxL / 2
	srcIdx := subsample(rng, len(t.XS), half)
	tgtIdx := subsample(rng, len(t.XT), maxL-len(srcIdx))
	landmarks := make([][]float64, 0, len(srcIdx)+len(tgtIdx))
	for _, i := range srcIdx {
		landmarks = append(landmarks, t.XS[i])
	}
	nS := len(srcIdx)
	for _, i := range tgtIdx {
		landmarks = append(landmarks, t.XT[i])
	}
	nT := len(tgtIdx)
	n := nS + nT
	if nS == 0 || nT == 0 {
		return nil, fmt.Errorf("tca: degenerate landmark split (%d source, %d target)", nS, nT)
	}
	if comp > n {
		// The eigenproblem is n×n, so at most n components exist.
		comp = n
	}

	// Kernel matrix over landmarks.
	k := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rbf(landmarks[i], landmarks[j], gamma)
			k.Set(i, j, v)
			k.Set(j, i, v)
		}
	}

	stage.End()
	stage = sp.Child("eigen")

	// MMD coefficient matrix L.
	l := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var v float64
			switch {
			case i < nS && j < nS:
				v = 1 / float64(nS*nS)
			case i >= nS && j >= nS:
				v = 1 / float64(nT*nT)
			default:
				v = -1 / float64(nS*nT)
			}
			l.Set(i, j, v)
		}
	}

	// Centering matrix H = I - (1/n) 11ᵀ.
	h := linalg.Identity(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			h.Set(i, j, h.At(i, j)-1/float64(n))
		}
	}

	// Generalized symmetric eigenproblem: maximise wᵀ K H K w subject
	// to wᵀ (K L K + µI) w. With A = KLK + µI = R Rᵀ and B = KHK, the
	// top eigenvectors of C = R⁻¹ B R⁻ᵀ map back via w = R⁻ᵀ u.
	klk := k.Mul(l).Mul(k)
	a := klk.Add(linalg.Identity(n)) // µ = 1
	b := k.Mul(h).Mul(k)
	// Symmetrise against accumulated round-off.
	symmetrise(a)
	symmetrise(b)
	r, err := linalg.Cholesky(a)
	if err != nil {
		return nil, fmt.Errorf("tca: regularised MMD matrix not PD: %w", err)
	}
	z, err := linalg.ForwardSolveMatrix(r, b) // Z = R⁻¹ B
	if err != nil {
		return nil, fmt.Errorf("tca: forward solve failed: %w", err)
	}
	cMat, err := linalg.ForwardSolveMatrix(r, z.T()) // C = R⁻¹ (R⁻¹ B)ᵀ = R⁻¹ B R⁻ᵀ
	if err != nil {
		return nil, fmt.Errorf("tca: second solve failed: %w", err)
	}
	symmetrise(cMat)
	_, u, work := linalg.TopEigenvectors(cMat, comp)
	stage.SetInt("sweeps", int64(work.Sweeps))
	stage.SetInt("rotations", int64(work.Rotations))
	// W = R⁻ᵀ U — back substitution with Rᵀ (upper triangular).
	w, err := linalg.BackSolveMatrix(r.T(), u)
	if err != nil {
		return nil, fmt.Errorf("tca: back solve failed: %w", err)
	}

	stage.End()
	stage = sp.Child("project")

	// Project any row through its landmark kernel vector.
	project := func(rows [][]float64) [][]float64 {
		out := make([][]float64, len(rows))
		kx := make([]float64, n)
		for i, row := range rows {
			for j, lm := range landmarks {
				kx[j] = rbf(row, lm, gamma)
			}
			z := make([]float64, comp)
			for cc := 0; cc < comp; cc++ {
				s := 0.0
				for j := 0; j < n; j++ {
					s += kx[j] * w.At(j, cc)
				}
				z[cc] = s
			}
			out[i] = z
		}
		return out
	}
	return trainingSet{x: project(t.XS), y: t.YS, xt: project(t.XT)}, nil
}

// Run implements Method.
func (c TCA) Run(t *Task, factory ml.Factory) (*Result, error) {
	return run(c, t, factory, nil)
}

func subsample(rng *rand.Rand, n, k int) []int {
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	return rng.Perm(n)[:k]
}

func rbf(a, b []float64, gamma float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Exp(-gamma * s)
}

func symmetrise(m *linalg.Matrix) {
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			v := (m.At(i, j) + m.At(j, i)) / 2
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
}
