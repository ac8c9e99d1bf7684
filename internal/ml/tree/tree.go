// Package tree implements a CART-style binary decision tree classifier
// with Gini impurity splits. Leaf probabilities are Laplace-smoothed
// class fractions, which gives the graded confidence scores TransER's
// pseudo-label generator relies on.
package tree

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"transer/internal/ml"
)

// Config holds what varies between trees; the depth and leaf limits
// are the constants below.
type Config struct {
	// MaxFeatures limits the number of features considered per split
	// (sampled without replacement); 0 means all features. Random
	// forests set this to sqrt(m).
	MaxFeatures int
	// Seed drives feature subsampling when MaxFeatures > 0.
	Seed int64
}

const (
	// maxDepth limits tree depth.
	maxDepth = 12
	// minLeaf is the minimum number of samples per leaf.
	minLeaf = 2
)

// Tree is a trained decision tree classifier.
type Tree struct {
	cfg  Config
	rng  *rand.Rand
	root *node
	dim  int
}

type node struct {
	// Leaf fields.
	leaf  bool
	proba float64
	// Split fields.
	feature     int
	threshold   float64
	left, right *node
}

// New creates an untrained tree with the given configuration.
func New(cfg Config) *Tree {
	return &Tree{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Factory returns an ml.Factory producing trees with this config.
func Factory(cfg Config) ml.Factory {
	return func() ml.Classifier { return New(cfg) }
}

// Fit grows the tree on x, y.
func (t *Tree) Fit(x [][]float64, y []int) error {
	dim, err := ml.ValidateTrainingData(x, y)
	if err != nil {
		return err
	}
	t.dim = dim
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	t.root = t.grow(x, y, idx, 0)
	return nil
}

// FitBootstrap grows the tree on a provided index multiset (used by
// random forests to pass bagged samples without copying rows). It
// bypasses the single-class error: a single-class bag yields a
// single-leaf tree.
func (t *Tree) FitBootstrap(x [][]float64, y []int, idx []int) error {
	if len(x) == 0 || len(idx) == 0 {
		return ml.ErrNoTrainingData
	}
	t.dim = len(x[0])
	t.root = t.grow(x, y, idx, 0)
	return nil
}

func leafProba(y []int, idx []int) float64 {
	if len(idx) == 0 {
		return 0.5
	}
	ones := 0
	for _, i := range idx {
		ones += y[i]
	}
	// Raw class fractions, matching scikit-learn: pure leaves emit hard
	// 0/1 probabilities, which keeps confidence thresholds like
	// TransER's t_p = 0.99 attainable.
	return float64(ones) / float64(len(idx))
}

func (t *Tree) grow(x [][]float64, y []int, idx []int, depth int) *node {
	ones := 0
	for _, i := range idx {
		ones += y[i]
	}
	pure := ones == 0 || ones == len(idx)
	if pure || depth >= maxDepth || len(idx) < 2*minLeaf {
		return &node{leaf: true, proba: leafProba(y, idx)}
	}
	feat, thr, ok := t.bestSplit(x, y, idx)
	if !ok {
		return &node{leaf: true, proba: leafProba(y, idx)}
	}
	var left, right []int
	for _, i := range idx {
		if x[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < minLeaf || len(right) < minLeaf {
		return &node{leaf: true, proba: leafProba(y, idx)}
	}
	return &node{
		feature:   feat,
		threshold: thr,
		left:      t.grow(x, y, left, depth+1),
		right:     t.grow(x, y, right, depth+1),
	}
}

// bestSplit finds the (feature, threshold) pair minimising weighted
// Gini impurity over candidate features. Per feature it sorts the
// label-1 and the label-0 values apart and merge-scans the two lists:
// after each distinct value v, the counts left of the split are the
// merge positions, and the threshold is the midpoint of v and the next
// distinct value, as a scan over one sorted (value, label) list finds.
func (t *Tree) bestSplit(x [][]float64, y []int, idx []int) (feat int, thr float64, ok bool) {
	features := t.candidateFeatures()
	bestGini := gini(y, idx) // must strictly improve on the parent
	n := len(idx)
	ones := make([]float64, 0, n)
	zeros := make([]float64, 0, n)
	for _, f := range features {
		ones, zeros = ones[:0], zeros[:0]
		for _, i := range idx {
			if y[i] == 1 {
				ones = append(ones, x[i][f])
			} else {
				zeros = append(zeros, x[i][f])
			}
		}
		slices.Sort(ones)
		slices.Sort(zeros)
		totalOnes := len(ones)
		a, b := 0, 0 // label-1 and label-0 values left of the split
		for a+b < n {
			// Step past every value not above v: the values equal to v,
			// or, when v is NaN (slices.Sort puts NaNs first), all of
			// them, so NaN features end the scan instead of stalling it.
			v := nextValue(ones, zeros, a, b)
			for a < len(ones) && !(ones[a] > v) {
				a++
			}
			for b < len(zeros) && !(zeros[b] > v) {
				b++
			}
			nl := a + b
			if nl == n {
				break
			}
			nr := n - nl
			gl := giniCounts(a, nl)
			gr := giniCounts(totalOnes-a, nr)
			g := (float64(nl)*gl + float64(nr)*gr) / float64(n)
			if g < bestGini-1e-12 {
				bestGini = g
				feat = f
				thr = (v + nextValue(ones, zeros, a, b)) / 2
				ok = true
			}
		}
	}
	return feat, thr, ok
}

// nextValue is the smaller of ones[a] and zeros[b], skipping a list
// that is used up; one of them must not be.
func nextValue(ones, zeros []float64, a, b int) float64 {
	switch {
	case a == len(ones):
		return zeros[b]
	case b == len(zeros):
		return ones[a]
	}
	return min(ones[a], zeros[b])
}

func (t *Tree) candidateFeatures() []int {
	all := make([]int, t.dim)
	for i := range all {
		all[i] = i
	}
	if t.cfg.MaxFeatures <= 0 || t.cfg.MaxFeatures >= t.dim {
		return all
	}
	t.rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	sub := all[:t.cfg.MaxFeatures]
	sort.Ints(sub)
	return sub
}

func gini(y []int, idx []int) float64 {
	ones := 0
	for _, i := range idx {
		ones += y[i]
	}
	return giniCounts(ones, len(idx))
}

func giniCounts(ones, n int) float64 {
	if n == 0 {
		return 0
	}
	p := float64(ones) / float64(n)
	return 2 * p * (1 - p)
}

// PredictProba returns the leaf match probability for each row.
func (t *Tree) PredictProba(x [][]float64) []float64 {
	out := make([]float64, len(x))
	for i, row := range x {
		out[i] = t.predictOne(row)
	}
	return out
}

func (t *Tree) predictOne(row []float64) float64 {
	n := t.root
	if n == nil {
		return 0.5
	}
	for !n.leaf {
		if row[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.proba
}

// ClassifierType implements ml.ParamClassifier.
func (t *Tree) ClassifierType() string { return "dtree" }

// InputDim implements ml.ParamClassifier.
func (t *Tree) InputDim() int { return t.dim }

// NodeParams is the serialised form of one tree node: either a leaf
// (Leaf true, Proba set) or an internal split with two children.
type NodeParams struct {
	Leaf      bool        `json:"leaf,omitempty"`
	Proba     float64     `json:"proba,omitempty"`
	Feature   int         `json:"feature,omitempty"`
	Threshold float64     `json:"threshold,omitempty"`
	Left      *NodeParams `json:"left,omitempty"`
	Right     *NodeParams `json:"right,omitempty"`
}

// Params is the serialised state of a trained Tree: its input width
// and node structure. Older artifacts also carry a "config" object,
// which decoding ignores.
type Params struct {
	Dim  int         `json:"dim"`
	Root *NodeParams `json:"root"`
}

func nodeParams(n *node) *NodeParams {
	if n == nil {
		return nil
	}
	if n.leaf {
		return &NodeParams{Leaf: true, Proba: n.proba}
	}
	return &NodeParams{
		Feature:   n.feature,
		Threshold: n.threshold,
		Left:      nodeParams(n.left),
		Right:     nodeParams(n.right),
	}
}

func nodeFromParams(p *NodeParams, dim int) (*node, error) {
	if p == nil {
		return nil, fmt.Errorf("tree: missing node")
	}
	if p.Leaf {
		return &node{leaf: true, proba: p.Proba}, nil
	}
	if p.Feature < 0 || p.Feature >= dim {
		return nil, fmt.Errorf("tree: split feature %d out of range [0,%d)", p.Feature, dim)
	}
	left, err := nodeFromParams(p.Left, dim)
	if err != nil {
		return nil, err
	}
	right, err := nodeFromParams(p.Right, dim)
	if err != nil {
		return nil, err
	}
	return &node{feature: p.Feature, threshold: p.Threshold, left: left, right: right}, nil
}

// Params implements ml.ParamClassifier.
func (t *Tree) Params() ([]byte, error) {
	if t.root == nil {
		return nil, ml.ErrNotTrained
	}
	return json.Marshal(Params{Dim: t.dim, Root: nodeParams(t.root)})
}

// SetParams implements ml.ParamClassifier. Prediction walks only the
// restored node structure, so the RNG (a fit-time concern) is reset to
// this tree's own seed.
func (t *Tree) SetParams(b []byte) error {
	var p Params
	if err := json.Unmarshal(b, &p); err != nil {
		return fmt.Errorf("tree: params: %w", err)
	}
	if p.Dim < 1 {
		return fmt.Errorf("tree: params dim %d", p.Dim)
	}
	root, err := nodeFromParams(p.Root, p.Dim)
	if err != nil {
		return err
	}
	t.rng = rand.New(rand.NewSource(t.cfg.Seed))
	t.dim = p.Dim
	t.root = root
	return nil
}

// Depth returns the depth of the trained tree (0 for a single leaf).
func (t *Tree) Depth() int { return depth(t.root) }

func depth(n *node) int {
	if n == nil || n.leaf {
		return 0
	}
	dl, dr := depth(n.left), depth(n.right)
	if dl > dr {
		return dl + 1
	}
	return dr + 1
}
