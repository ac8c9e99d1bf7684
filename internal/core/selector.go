package core

import (
	"math"

	"transer/internal/kdtree"
	"transer/internal/parallel"
)

// decayRate is the exponential decay coefficient of Equation (2); the
// paper selects e^{-5x} from the candidates in Figure 5.
const decayRate = 5.0

// InstanceSimilarities holds the per-source-instance transferability
// scores of the SEL phase.
type InstanceSimilarities struct {
	// SimC is the class confidence similarity (Equation 1).
	SimC float64
	// SimL is the structural similarity (Equation 2).
	SimL float64
	// SimV is LocIT's covariance similarity (only computed when the
	// +sim_v ablation is enabled; otherwise 1).
	SimV float64
}

// selector computes SEL-phase similarities for all source instances.
type selector struct {
	xs  [][]float64
	ys  []int
	xt  [][]float64
	cfg Config

	srcTree, tgtTree *kdtree.Tree
	sqrtM            float64
}

func newSelector(xs [][]float64, ys []int, xt [][]float64, cfg Config) *selector {
	m := 0
	if len(xs) > 0 {
		m = len(xs[0])
	}
	return &selector{
		xs: xs, ys: ys, xt: xt, cfg: cfg,
		sqrtM: math.Sqrt(float64(m)),
	}
}

// ensureTrees lazily builds the per-instance pointer trees used by
// the diagnostic per-instance API (Similarities). selectInstances
// never builds them. Not goroutine-safe: call before fanning out.
func (s *selector) ensureTrees() {
	if s.srcTree == nil {
		s.srcTree = kdtree.Build(s.xs)
		s.tgtTree = kdtree.Build(s.xt)
	}
}

// similaritiesFor computes sim_c, sim_l (and sim_v if enabled) for the
// source instance at index i.
func (s *selector) similaritiesFor(i int) InstanceSimilarities {
	s.ensureTrees()
	x := s.xs[i]
	// k nearest source neighbours, excluding the instance itself — its
	// own label must not inflate its class confidence.
	k := s.cfg.K
	nnS := s.srcTree.KNN(x, k, func(id int) bool { return id == i })
	nnT := s.tgtTree.KNN(x, k, nil)
	return s.simsFrom(i, nnS, nnT)
}

// simsFrom evaluates Equations (1), (2) and the sim_v ablation for
// instance i given its already-resolved neighbourhoods.
func (s *selector) simsFrom(i int, nnS, nnT []kdtree.Neighbour) InstanceSimilarities {
	x := s.xs[i]

	sims := InstanceSimilarities{SimC: 1, SimL: 1, SimV: 1}

	// Equation (1): fraction of source neighbours sharing the label.
	if len(nnS) > 0 {
		same := 0
		for _, n := range nnS {
			if s.ys[n.ID] == s.ys[i] {
				same++
			}
		}
		sims.SimC = float64(same) / float64(len(nnS))
	}

	// Equation (2): exponential decay of the normalised distance
	// between the neighbourhood centroids.
	if len(nnS) > 0 && len(nnT) > 0 && s.sqrtM > 0 {
		cS := kdtree.Centroid(s.xs, nnS, len(x))
		cT := kdtree.Centroid(s.xt, nnT, len(x))
		dist := kdtree.Dist(cS, cT) / s.sqrtM
		sims.SimL = math.Exp(-decayRate * dist)
	}

	// LocIT covariance similarity (Table 4's "+ sim_v" ablation): the
	// Frobenius distance between the two neighbourhoods' covariance
	// matrices, pushed through the same decay.
	if s.cfg.EnableSimV && len(nnS) > 1 && len(nnT) > 1 {
		covS := neighbourhoodCovariance(s.xs, nnS, len(x))
		covT := neighbourhoodCovariance(s.xt, nnT, len(x))
		d := 0.0
		for j := range covS {
			diff := covS[j] - covT[j]
			d += diff * diff
		}
		m := float64(len(x))
		sims.SimV = math.Exp(-decayRate * math.Sqrt(d) / m)
	}
	return sims
}

// neighbourhoodCovariance returns the flattened covariance matrix of
// the neighbourhood points.
func neighbourhoodCovariance(points [][]float64, nn []kdtree.Neighbour, dim int) []float64 {
	mean := kdtree.Centroid(points, nn, dim)
	cov := make([]float64, dim*dim)
	for _, n := range nn {
		p := points[n.ID]
		for a := 0; a < dim; a++ {
			da := p[a] - mean[a]
			for b := 0; b < dim; b++ {
				cov[a*dim+b] += da * (p[b] - mean[b])
			}
		}
	}
	inv := 1 / float64(len(nn))
	for j := range cov {
		cov[j] *= inv
	}
	return cov
}

// accepted applies the configured thresholds/ablations.
func (s *selector) accepted(sims InstanceSimilarities) bool {
	if !s.cfg.DisableSimC && sims.SimC < s.cfg.TC {
		return false
	}
	if !s.cfg.DisableSimL && sims.SimL < s.cfg.TL {
		return false
	}
	if s.cfg.EnableSimV && sims.SimV < s.cfg.TV {
		return false
	}
	return true
}

// selectInstances runs the SEL phase and returns the indices of the
// transferred instances, in order.
//
// Real linkage feature matrices contain heavily repeated vectors
// (Table 1 of the paper counts them), and the SEL similarities depend
// on an instance only through its feature vector, its label and its
// self-exclusion from the source KNN query. The selector therefore
// groups rows by exact vector equality (kdtree.Uniq) and answers
// instance-level k-NN with one query per unique vector over weighted
// flattened trees of both domains (kdtree.WeightedIndex), so a
// duplicate group costs one point instead of being re-scanned by every
// query (DESIGN.md §10). decideVector turns each vector's
// neighbourhoods into per-row decisions bitwise-identical to the
// per-instance definition.
//
// The query stage runs in parallel over cfg.Workers and records
// sel_dedup/sel_build/sel_query sub-spans under cfg.Obs.
func (s *selector) selectInstances() []int {
	keep := make([]bool, len(s.xs))

	dedupSpan := s.cfg.Obs.Child("sel_dedup")
	uS := kdtree.Uniq(s.xs)
	uT := kdtree.Uniq(s.xt)
	dedupSpan.SetInt("groups", int64(uS.Len()))
	dedupSpan.SetInt("target_groups", int64(uT.Len()))
	dedupSpan.End()

	buildSpan := s.cfg.Obs.Child("sel_build")
	ixS := kdtree.NewWeightedIndex(uS)
	ixT := kdtree.NewWeightedIndex(uT)
	buildSpan.End()

	k := s.cfg.K
	querySpan := s.cfg.Obs.Child("sel_query")
	parallel.ForEachChunk(s.cfg.Workers, uS.Len(), func(lo, hi int) {
		for ui := lo; ui < hi; ui++ {
			v := uS.Vecs[ui]
			s.decideVector(uS.Members[ui], ixS.KNN(v, k+1), ixT.KNN(v, k), keep)
		}
	})
	querySpan.End()

	out := make([]int, 0, len(keep))
	for i, kept := range keep {
		if kept {
			out = append(out, i)
		}
	}
	return out
}

// decideVector writes the SEL decision for every original row sharing
// one feature vector, given the vector's (k+1)-candidate source
// window cand and its k-NN target neighbourhood nnT, both in canonical
// (distance, id) order.
//
// Exactness: the per-instance definition (similaritiesFor) takes, for
// row i, the k nearest source rows in canonical order with i itself
// excluded. Querying k+1 candidates once without exclusion makes that
// derivable for every member: if i is among the k+1 candidates its
// neighbour set is the remaining k; otherwise it is the first k
// (dropping i from the tail changes nothing). The sims depend on
// neighbours only through coordinates and labels, and the members of
// one (vector, label) class share both, so swapping one in-candidate
// member for another is invisible. Each label class therefore has at
// most two distinct outcomes — members inside the candidate window
// and members beyond it — and each is computed once, whatever the
// vector's multiplicity. Rows with equal vectors but different labels
// form independent classes.
func (s *selector) decideVector(members []int32, cand, nnT []kdtree.Neighbour, keep []bool) {
	k := s.cfg.K
	type classDecision struct {
		label           int
		accIn, accOut   bool
		haveIn, haveOut bool
	}
	classes := make([]classDecision, 0, 2)
	inCand := func(id int) bool {
		for _, c := range cand {
			if c.ID == id {
				return true
			}
		}
		return false
	}
	for _, m32 := range members {
		m := int(m32)
		y := s.ys[m]
		ci := -1
		for j := range classes {
			if classes[j].label == y {
				ci = j
				break
			}
		}
		if ci < 0 {
			classes = append(classes, classDecision{label: y})
			ci = len(classes) - 1
		}
		dec := &classes[ci]
		if inCand(m) {
			if !dec.haveIn {
				nnS := make([]kdtree.Neighbour, 0, len(cand)-1)
				for _, c := range cand {
					if c.ID != m {
						nnS = append(nnS, c)
					}
				}
				dec.accIn = s.accepted(s.simsFrom(m, nnS, nnT))
				dec.haveIn = true
			}
			keep[m] = dec.accIn
		} else {
			if !dec.haveOut {
				nnS := cand
				if len(nnS) > k {
					nnS = nnS[:k]
				}
				dec.accOut = s.accepted(s.simsFrom(m, nnS, nnT))
				dec.haveOut = true
			}
			keep[m] = dec.accOut
		}
	}
}

// SelectInstances exposes the SEL phase standalone: it returns the
// indices of the source instances TransER would transfer under cfg.
// It is used by ablation studies and by callers that want to reuse
// the selector with their own downstream classifier.
func SelectInstances(xs [][]float64, ys []int, xt [][]float64, cfg Config) []int {
	cfg = cfg.withDefaults()
	if cfg.DisableSEL {
		out := make([]int, len(xs))
		for i := range out {
			out[i] = i
		}
		return out
	}
	return newSelector(xs, ys, xt, cfg).selectInstances()
}

// Similarities computes the SEL similarity scores for every source
// instance without filtering (diagnostic API).
func Similarities(xs [][]float64, ys []int, xt [][]float64, cfg Config) []InstanceSimilarities {
	cfg = cfg.withDefaults()
	sel := newSelector(xs, ys, xt, cfg)
	out := make([]InstanceSimilarities, len(xs))
	for i := range xs {
		out[i] = sel.similaritiesFor(i)
	}
	return out
}
