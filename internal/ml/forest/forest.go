// Package forest implements a random forest classifier: bagged CART
// trees with per-split feature subsampling. The predicted match
// probability is the mean of the trees' leaf probabilities, the usual
// soft voting scheme.
package forest

import (
	"encoding/json"
	"fmt"
	"math"

	"transer/internal/ml"
	"transer/internal/ml/tree"
	"transer/internal/seeded"
)

// Config holds what varies between forests; the ensemble size is the
// constant below and each split samples round(sqrt(m)) of the m
// features.
type Config struct {
	// Seed drives bootstrap sampling and feature subsampling.
	Seed int64
}

// numTrees is the ensemble size.
const numTrees = 30

// Forest is a random forest classifier.
type Forest struct {
	cfg   Config
	trees []*tree.Tree
}

// New creates an untrained forest.
func New(cfg Config) *Forest { return &Forest{cfg: cfg} }

// Factory returns an ml.Factory producing forests with this config.
func Factory(cfg Config) ml.Factory {
	return func() ml.Classifier { return New(cfg) }
}

// Fit trains the ensemble on bootstrap samples of (x, y). Every tree
// reads one tree.Encoding of x, built here, so concurrent fits share
// nothing.
func (f *Forest) Fit(x [][]float64, y []int) error {
	dim, err := ml.ValidateTrainingData(x, y)
	if err != nil {
		return err
	}
	maxFeat := int(math.Round(math.Sqrt(float64(dim))))
	if maxFeat < 1 {
		maxFeat = 1
	}
	rng := seeded.New(f.cfg.Seed)
	n := len(x)
	enc := tree.Encode(x)
	idx := make([]int, n)
	f.trees = make([]*tree.Tree, 0, numTrees)
	for t := 0; t < numTrees; t++ {
		for i := range idx {
			idx[i] = rng.Intn(n)
		}
		tr := tree.New(tree.Config{MaxFeatures: maxFeat, Seed: rng.Int63()})
		if err := tr.FitBootstrap(enc, y, idx); err != nil {
			return err
		}
		f.trees = append(f.trees, tr)
	}
	return nil
}

// ClassifierType implements ml.ParamClassifier.
func (f *Forest) ClassifierType() string { return "rf" }

// InputDim implements ml.ParamClassifier: the width every tree reads.
func (f *Forest) InputDim() int {
	if len(f.trees) == 0 {
		return 0
	}
	return f.trees[0].InputDim()
}

// Params is the serialised state of a trained Forest: every tree's own
// exported parameters. Older artifacts also carry a "config" object,
// here and in each tree, which decoding ignores.
type Params struct {
	Trees []json.RawMessage `json:"trees"`
}

// Params implements ml.ParamClassifier.
func (f *Forest) Params() ([]byte, error) {
	if len(f.trees) == 0 {
		return nil, ml.ErrNotTrained
	}
	p := Params{Trees: make([]json.RawMessage, len(f.trees))}
	for i, tr := range f.trees {
		b, err := tr.Params()
		if err != nil {
			return nil, fmt.Errorf("forest: tree %d: %w", i, err)
		}
		p.Trees[i] = b
	}
	return json.Marshal(p)
}

// SetParams implements ml.ParamClassifier.
func (f *Forest) SetParams(b []byte) error {
	var p Params
	if err := json.Unmarshal(b, &p); err != nil {
		return fmt.Errorf("forest: params: %w", err)
	}
	if len(p.Trees) == 0 {
		return fmt.Errorf("forest: params carry no trees")
	}
	trees := make([]*tree.Tree, len(p.Trees))
	for i, tb := range p.Trees {
		tr := tree.New(tree.Config{})
		if err := tr.SetParams(tb); err != nil {
			return fmt.Errorf("forest: tree %d: %w", i, err)
		}
		if i > 0 && tr.InputDim() != trees[0].InputDim() {
			return fmt.Errorf("forest: tree %d reads %d features, tree 0 reads %d", i, tr.InputDim(), trees[0].InputDim())
		}
		trees[i] = tr
	}
	f.trees = trees
	return nil
}

// PredictProba returns the ensemble-mean match probability per row.
func (f *Forest) PredictProba(x [][]float64) []float64 {
	out := make([]float64, len(x))
	if len(f.trees) == 0 {
		for i := range out {
			out[i] = 0.5
		}
		return out
	}
	for _, tr := range f.trees {
		p := tr.PredictProba(x)
		for i, v := range p {
			out[i] += v
		}
	}
	inv := 1 / float64(len(f.trees))
	for i := range out {
		out[i] *= inv
	}
	return out
}
