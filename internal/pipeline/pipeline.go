// Package pipeline is the single owner of "how a Domain gets built".
// It decomposes domain construction into the paper's Figure 3 stages —
// generate → block → compare → label — where each stage is a pure
// function of its typed inputs, and provides a memoized artifact store
// (Store) that caches stage outputs under deterministic fingerprints
// so that every workload sharing a store builds each distinct artifact
// exactly once.
//
// The public API (transer.NewDomain and friends) composes the stage
// functions directly; the experiment harness and cmd/experiments go
// through a Store so the same domain is never generated, blocked or
// compared twice within a run. Because every stage is deterministic
// for fixed inputs (see the determinism guarantee in the parallel
// package), a cache hit returns bitwise the same artifact a rebuild
// would produce: rendered experiment output is byte-identical cold vs.
// warm, for any worker count, and for any cache-hit order.
package pipeline

import (
	"context"

	"transer/internal/blocking"
	"transer/internal/compare"
	"transer/internal/datagen"
	"transer/internal/dataset"
	"transer/internal/query"
)

// Domain is the fully built artifact of the construction pipeline: two
// databases, their blocked candidate pairs, the comparison feature
// matrix, and the ground-truth pair labels. Store-returned Domains are
// shared across callers and must be treated as read-only.
type Domain struct {
	Name   string
	A, B   *dataset.Database
	Pairs  []dataset.Pair
	X      [][]float64
	Y      []int
	Scheme compare.Scheme
}

// NumFeatures returns the feature space dimensionality m.
func (d *Domain) NumFeatures() int { return d.Scheme.NumFeatures() }

// Stage functions -----------------------------------------------------------
//
// Each stage is a pure function: equal inputs produce equal (bitwise
// identical) outputs regardless of worker count or scheduling, which
// is what makes memoizing them sound.

// Block reduces the quadratic pair space of two databases to the
// candidate pair set (the blocking stage) with MinHash-LSH — the same
// candidate relation batch queries, the streaming store and repository
// signatures use.
func Block(a, b *dataset.Database, cfg blocking.MinHashConfig) []dataset.Pair {
	return blocking.CandidatePairs(a, b, cfg)
}

// Compare computes the n×m feature matrix over the candidate pairs
// (the comparison stage) on the query engine's vectorized compare
// operator. scheme.Workers bounds the goroutines used; rows are
// written to index-addressed slots in fixed row blocks, so the matrix
// is identical for every worker count.
func Compare(a, b *dataset.Database, pairs []dataset.Pair, scheme compare.Scheme) [][]float64 {
	// The background context never cancels, so the error is always nil.
	x, _ := query.CompareMatrix(context.Background(), a, b, scheme, pairs)
	return x
}

// Label derives pair labels from a ground-truth match set (the
// labelling stage).
func Label(pairs []dataset.Pair, truth dataset.PairSet) []int {
	return dataset.LabelPairs(pairs, truth)
}

// BuildSpec parameterises un-memoized domain construction.
type BuildSpec struct {
	// Name is the domain's display name.
	Name string
	// Blocking is the MinHash-LSH configuration (zero value = package
	// defaults).
	Blocking blocking.MinHashConfig
	// Scheme overrides the comparison scheme; nil derives
	// compare.DefaultScheme from A's schema.
	Scheme *compare.Scheme
	// Workers bounds comparison goroutines; 0 means one per CPU.
	Workers int
	// NoLabels suppresses the labelling stage even when ground truth
	// is available.
	NoLabels bool
}

// Build composes the block → compare → label stages over two databases
// without memoization — the path for arbitrary caller-supplied data,
// where no stable dataset identity exists to fingerprint. Labels are
// only attached when ground truth is present.
func Build(a, b *dataset.Database, spec BuildSpec) *Domain {
	scheme := compare.DefaultScheme(a.Schema)
	if spec.Scheme != nil {
		scheme = *spec.Scheme
	}
	if spec.Workers != 0 {
		scheme.Workers = spec.Workers
	}
	pairs := Block(a, b, spec.Blocking)
	d := &Domain{
		Name:   spec.Name,
		A:      a,
		B:      b,
		Pairs:  pairs,
		X:      Compare(a, b, pairs, scheme),
		Scheme: scheme,
	}
	if !spec.NoLabels {
		if truth := dataset.GroundTruth(a, b); len(truth) > 0 {
			d.Y = Label(pairs, truth)
		}
	}
	return d
}

// BuildPair builds a generated domain pair with its recommended
// blocking configuration and the default comparison scheme, labelling
// from the pair's ground truth — the un-memoized equivalent of
// Store.Domain for a DomainPair that is already in hand.
func BuildPair(p datagen.DomainPair, workers int) *Domain {
	return Build(p.A, p.B, BuildSpec{
		Name:     p.Name,
		Blocking: p.Blocking,
		Workers:  workers,
	})
}
