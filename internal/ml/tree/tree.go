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
	"transer/internal/seeded"
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
	return &Tree{cfg: cfg, rng: seeded.New(cfg.Seed)}
}

// Factory returns an ml.Factory producing trees with this config.
func Factory(cfg Config) ml.Factory {
	return func() ml.Classifier { return New(cfg) }
}

// Fit grows the tree on x, y.
func (t *Tree) Fit(x [][]float64, y []int) error {
	if _, err := ml.ValidateTrainingData(x, y); err != nil {
		return err
	}
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	return t.FitBootstrap(Encode(x), y, idx)
}

// FitBootstrap grows the tree on the rows of e listed in idx, an index
// multiset (random forests pass bagged samples this way, sharing one
// Encoding, without copying rows), with y holding 0/1 labels. It
// reorders idx. It bypasses the single-class error: a single-class bag
// yields a single-leaf tree.
func (t *Tree) FitBootstrap(e *Encoding, y []int, idx []int) error {
	if e.n == 0 || len(idx) == 0 {
		return ml.ErrNoTrainingData
	}
	t.dim = e.dim
	t.root = newGrower(t, e, y).grow(idx, 0)
	return nil
}

// Encoding ranks each feature's values once per fit, so that a split
// search counts labels per distinct value instead of sorting the rows
// of every node. It is read-only once built.
type Encoding struct {
	n, dim int
	// vals[f] holds feature f's distinct non-NaN values in ascending
	// order; −0 and +0 are one value.
	vals [][]float64
	// codes[f][i] is row i's rank in vals[f], or len(vals[f]) when
	// x[i][f] is NaN.
	codes [][]int32
	// maxRanks is the largest len(vals[f])+1: a count per rank, NaN's
	// included.
	maxRanks int
}

// Encode ranks the features of x, a rectangular matrix (an empty one
// yields an Encoding that FitBootstrap rejects).
func Encode(x [][]float64) *Encoding {
	if len(x) == 0 {
		return &Encoding{}
	}
	n, dim := len(x), len(x[0])
	e := &Encoding{n: n, dim: dim, vals: make([][]float64, dim), codes: make([][]int32, dim)}
	codes := make([]int32, n*dim)
	col := make([]float64, 0, n)
	for f := range dim {
		col = col[:0]
		for _, row := range x {
			if v := row[f]; v == v {
				col = append(col, v)
			}
		}
		slices.Sort(col)
		vals := slices.Clone(slices.Compact(col))
		c := codes[f*n : (f+1)*n : (f+1)*n]
		for i, row := range x {
			r, found := slices.BinarySearch(vals, row[f])
			if !found {
				r = len(vals) // NaN
			}
			c[i] = int32(r)
		}
		e.vals[f], e.codes[f] = vals, c
		e.maxRanks = max(e.maxRanks, len(vals)+1)
	}
	return e
}

// grower grows one tree over a shared Encoding with scratch reused
// from node to node.
type grower struct {
	t   *Tree
	enc *Encoding
	y   []int
	// counts holds per rank the node's rows in the high 32 bits and
	// its label-1 rows in the low 32; it is zero between split searches.
	counts []uint64
	feats  []int
}

func newGrower(t *Tree, e *Encoding, y []int) *grower {
	return &grower{t: t, enc: e, y: y, counts: make([]uint64, e.maxRanks), feats: make([]int, e.dim)}
}

// grow builds the subtree over idx, partitioning idx in place.
func (g *grower) grow(idx []int, depth int) *node {
	n := len(idx)
	ones := 0
	for _, i := range idx {
		ones += g.y[i]
	}
	if ones == 0 || ones == n || depth >= maxDepth || n < 2*minLeaf {
		return leafNode(ones, n)
	}
	feat, thr, ok := g.bestSplit(idx, ones)
	if !ok {
		return leafNode(ones, n)
	}
	vals, codes := g.enc.vals[feat], g.enc.codes[feat]
	nl := 0
	for k, i := range idx {
		if vals[codes[i]] <= thr {
			idx[nl], idx[k] = i, idx[nl]
			nl++
		}
	}
	if nl < minLeaf || n-nl < minLeaf {
		return leafNode(ones, n)
	}
	return &node{
		feature:   feat,
		threshold: thr,
		left:      g.grow(idx[:nl], depth+1),
		right:     g.grow(idx[nl:], depth+1),
	}
}

// leafNode is a leaf over n rows, ones of them label 1. Its
// probability is the raw class fraction, matching scikit-learn: pure
// leaves emit hard 0/1 probabilities, which keeps confidence thresholds
// like TransER's t_p = 0.99 attainable.
func leafNode(ones, n int) *node {
	return &node{leaf: true, proba: float64(ones) / float64(n)}
}

// bestSplit finds the (feature, threshold) pair minimising weighted
// Gini impurity over candidate features; ones is the number of label-1
// rows in idx. Per feature it counts the rows and label-1 rows at each
// rank, then scans the ranks present in ascending order: the split
// after a rank leaves every row up to it on the left, and its
// threshold is the midpoint of that rank's value and the next present
// one. A feature that is NaN in any row of the node is not split.
func (g *grower) bestSplit(idx []int, ones int) (feat int, thr float64, ok bool) {
	n := len(idx)
	bestGini := giniCounts(ones, n) // must strictly improve on the parent
	counts := g.counts
	for _, f := range g.t.candidateFeatures(g.feats) {
		codes, vals := g.enc.codes[f], g.enc.vals[f]
		lo, hi := int32(len(vals)), int32(0)
		for _, i := range idx {
			c := codes[i]
			counts[c] += 1<<32 | uint64(g.y[i])
			lo, hi = min(lo, c), max(hi, c)
		}
		if int(hi) < len(vals) { // no NaN, which takes rank len(vals)
			prev := lo
			nl, a := int(counts[lo]>>32), int(uint32(counts[lo])) // rows, label-1 rows left of the split
			for r := lo + 1; r <= hi; r++ {
				c := counts[r]
				if c == 0 {
					continue
				}
				nr := n - nl
				gl := giniCounts(a, nl)
				gr := giniCounts(ones-a, nr)
				gi := (float64(nl)*gl + float64(nr)*gr) / float64(n)
				if gi < bestGini-1e-12 {
					bestGini = gi
					feat = f
					thr = (vals[prev] + vals[r]) / 2
					ok = true
				}
				nl += int(c >> 32)
				a += int(uint32(c))
				prev = r
			}
		}
		clear(counts[lo : hi+1])
	}
	return feat, thr, ok
}

// candidateFeatures returns the features one split search considers,
// in ascending order, using all (of length dim) as its buffer.
func (t *Tree) candidateFeatures(all []int) []int {
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
	t.rng = seeded.New(t.cfg.Seed)
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
