package transfer

import (
	"errors"
	"math"
	"math/rand"

	"transer/internal/dataset"
	"transer/internal/embed"
	"transer/internal/kdtree"
	"transer/internal/ml"
	"transer/internal/obs"
	"transer/internal/seeded"
)

// DR implements the Reuse-and-Adaptation baseline of Thirumuruganathan
// et al. (2018): record pairs are represented by distributed (word
// embedding) features instead of similarity features, source instances
// are re-weighted towards the target distribution, and a traditional
// classifier is trained on the weighted representation.
//
// The original uses pre-trained FastText vectors; offline, the
// embedder hashes word tokens to fixed pseudo-random vectors, which
// reproduces FastText's out-of-vocabulary behaviour on structured
// personal data: a typo or abbreviation maps a value to an unrelated
// vector, so the representation carries little string-variation signal
// and transfer turns negative — the failure mode the paper reports.
//
// The density-ratio weights are exact k-NN distances, answered by
// kdtree.WeightedIndex over the distinct embedded rows of subsampled
// reference sets.
type DR struct {
	// Seed drives embedding hashing and the weighted resampling.
	Seed int64
}

const (
	// drEmbedDim is the per-attribute embedding width.
	drEmbedDim = 8
	// drWeightK is the neighbourhood size of the density-ratio
	// instance weighting.
	drWeightK = 5
	// drMaxWeightRef caps the reference-set size for the density-ratio
	// estimate. Exact k-NN in the high-dimensional embedding space is
	// close to a linear scan per query, so the densities are estimated
	// against a subsample.
	drMaxWeightRef = 2000
)

// Name implements Method.
func (DR) Name() string { return "DR" }

// Prepare implements Method: the embedding representation, the
// density-ratio instance weights and the weighted resample, in stage
// spans represent, weight and resample under sp.
func (c DR) Prepare(t *Task, sp *obs.Span) (Prepared, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if t.SourceA == nil || t.SourceB == nil || t.TargetA == nil || t.TargetB == nil {
		return nil, errors.New("dr: requires raw databases and record pairs")
	}
	if len(t.SourcePairs) != len(t.XS) || len(t.TargetPairs) != len(t.XT) {
		return nil, errors.New("dr: pair lists misaligned with feature matrices")
	}
	stage := sp.Child("represent")
	zs, zt := c.represent(t)
	stage.End()

	// Instance weighting: approximate the density ratio p_T(x)/p_S(x)
	// per source instance by the ratio of its kNN distances within the
	// source vs into the target (closer target neighbourhood => higher
	// weight), then resample the source proportionally. Densities are
	// estimated against subsampled reference sets (drMaxWeightRef).
	stage = sp.Child("weight")
	refRng := seeded.New(c.Seed + 1)
	srcIx := kdtree.NewWeightedIndex(kdtree.Uniq(subsampleRows(refRng, zs, drMaxWeightRef)))
	tgtIx := kdtree.NewWeightedIndex(kdtree.Uniq(subsampleRows(refRng, zt, drMaxWeightRef)))
	weights := make([]float64, len(zs))
	for i, z := range zs {
		// Exclude exact self-duplicates by distance: the subsample may
		// or may not contain row i itself, so drop one zero-distance
		// neighbour instead of tracking identity.
		nnS := srcIx.KNN(z, drWeightK+1)
		if len(nnS) > 0 && nnS[0].Dist2 == 0 {
			nnS = nnS[1:]
		} else if len(nnS) > drWeightK {
			nnS = nnS[:drWeightK]
		}
		dS := meanDist(nnS)
		dT := meanDist(tgtIx.KNN(z, drWeightK))
		switch {
		case dT <= 0 && dS <= 0:
			weights[i] = 1
		case dT <= 0:
			weights[i] = 4
		case dS <= 0:
			weights[i] = 0.25
		default:
			w := dS / dT
			if w > 4 {
				w = 4
			} else if w < 0.25 {
				w = 0.25
			}
			weights[i] = w
		}
	}
	stage.End()

	// The weighted resample also caps the training set: instance
	// weighting needs a representative sample, not every row, and
	// tree ensembles on the wide embedding space are expensive.
	stage = sp.Child("resample")
	trainCap := len(zs)
	if trainCap > 4*drMaxWeightRef {
		trainCap = 4 * drMaxWeightRef
	}
	rx, ry := resampleWeightedN(zs, t.YS, weights, c.Seed, trainCap)
	stage.End()
	return trainingSet{x: rx, y: ry, xt: zt}, nil
}

// Run implements Method.
func (c DR) Run(t *Task, factory ml.Factory) (*Result, error) {
	return run(c, t, factory, nil)
}

// represent maps the source and target record pairs to their
// distributed representation: per attribute, the embedder's pair
// features of the two values. Records recur across candidate pairs,
// so each distinct attribute value is embedded once.
func (c DR) represent(t *Task) (zs, zt [][]float64) {
	emb := embed.New(drEmbedDim, c.Seed)
	values := map[string][]float64{}
	value := func(s string) []float64 {
		v, ok := values[s]
		if !ok {
			v = emb.Value(s)
			values[s] = v
		}
		return v
	}
	rows := func(a, b *dataset.Database, pairs []dataset.Pair) [][]float64 {
		m := a.Schema.NumAttributes()
		out := make([][]float64, len(pairs))
		for i, p := range pairs {
			ra, rb := a.Records[p.A], b.Records[p.B]
			row := make([]float64, 0, m*(drEmbedDim+1))
			for q := 0; q < m; q++ {
				row = append(row, emb.PairFeaturesOf(value(ra.Values[q]), value(rb.Values[q]))...)
			}
			out[i] = row
		}
		return out
	}
	return rows(t.SourceA, t.SourceB, t.SourcePairs), rows(t.TargetA, t.TargetB, t.TargetPairs)
}

// subsampleRows picks at most max rows without replacement.
func subsampleRows(rng *rand.Rand, rows [][]float64, max int) [][]float64 {
	if len(rows) <= max {
		return rows
	}
	idx := rng.Perm(len(rows))[:max]
	out := make([][]float64, max)
	for i, j := range idx {
		out[i] = rows[j]
	}
	return out
}

func meanDist(nn []kdtree.Neighbour) float64 {
	if len(nn) == 0 {
		return 0
	}
	s := 0.0
	for _, n := range nn {
		s += math.Sqrt(n.Dist2)
	}
	return s / float64(len(nn))
}

// resampleWeightedN draws n rows with replacement with probability
// proportional to weight, implementing instance re-weighting for
// weight-unaware classifiers.
func resampleWeightedN(x [][]float64, y []int, w []float64, seed int64, n int) ([][]float64, []int) {
	total := 0.0
	for _, v := range w {
		total += v
	}
	if total <= 0 {
		return x, y
	}
	// Cumulative distribution for inverse-CDF sampling.
	cum := make([]float64, len(w))
	acc := 0.0
	for i, v := range w {
		acc += v
		cum[i] = acc
	}
	rng := seeded.New(seed)
	outX := make([][]float64, n)
	outY := make([]int, n)
	for i := range outX {
		r := rng.Float64() * total
		j := searchCum(cum, r)
		outX[i] = x[j]
		outY[i] = y[j]
	}
	return outX, outY
}

func searchCum(cum []float64, r float64) int {
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
