// Package pipeline is the single owner of "how a Domain gets built".
// Build runs the paper's Figure 3 stages — block → compare → label —
// over two databases; each stage is a pure function of its inputs.
// Store memoizes whole built-in domains (generate, then Build) under
// their (dataset key, generator seed, scale) identity, so every
// workload sharing a store builds each distinct domain exactly once.
//
// The public API (transer.NewDomain and friends) calls Build directly;
// the experiment harness and cmd/experiments go through a Store so the
// same domain is never built twice within a run. Because every stage
// is deterministic for fixed inputs (see the determinism guarantee in
// the parallel package), a cache hit returns bitwise the same domain a
// rebuild would produce: rendered experiment output is byte-identical
// cold vs. warm, for any worker count, and for any cache-hit order.
package pipeline

import (
	"context"

	"transer/internal/blocking"
	"transer/internal/compare"
	"transer/internal/datagen"
	"transer/internal/dataset"
	"transer/internal/obs"
	"transer/internal/query"
)

// Domain is the fully built output of the construction pipeline: two
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

// BuildSpec parameterises one domain build.
type BuildSpec struct {
	// Name is the domain's display name.
	Name string
	// Blocking is the MinHash-LSH configuration (zero value = package
	// defaults).
	Blocking blocking.MinHashConfig
	// Scheme overrides the comparison scheme; nil derives
	// compare.DefaultScheme from A's schema.
	Scheme *compare.Scheme
	// Workers bounds comparison goroutines; 0 means one per CPU. The
	// domain is byte-identical for every value.
	Workers int
	// NoLabels suppresses the labelling stage even when ground truth
	// is available.
	NoLabels bool
}

// Build composes the block → compare → label stages over two
// databases: MinHash-LSH candidate pairs (blocking.CandidatePairs), the
// query engine's compare operator, and labels from the databases'
// ground truth when present. When sp is non-nil every stage records a
// "<stage>:<spec.Name>" child span under it.
func Build(a, b *dataset.Database, spec BuildSpec, sp *obs.Span) *Domain {
	scheme := compare.DefaultScheme(a.Schema)
	if spec.Scheme != nil {
		scheme = *spec.Scheme
	}
	stage := func(name string) *obs.Span { return sp.Child(name + ":" + spec.Name) }

	blk := stage("block")
	pairs := blocking.CandidatePairs(a, b, spec.Blocking)
	blk.SetInt("candidate_pairs", int64(len(pairs)))
	blk.End()

	cmp := stage("compare")
	// The background context never cancels, so the error is always nil.
	x, _ := query.CompareMatrix(context.Background(), a, b, scheme, pairs, spec.Workers)
	cmp.SetInt("rows", int64(len(x)))
	cmp.SetInt("features", int64(scheme.NumFeatures()))
	cmp.End()

	d := &Domain{Name: spec.Name, A: a, B: b, Pairs: pairs, X: x, Scheme: scheme}
	if !spec.NoLabels {
		lbl := stage("label")
		if truth := dataset.GroundTruth(a, b); len(truth) > 0 {
			d.Y = dataset.LabelPairs(pairs, truth)
		}
		matches := 0
		for _, l := range d.Y {
			matches += l
		}
		lbl.SetInt("labels", int64(len(d.Y)))
		lbl.SetInt("matches", int64(matches))
		lbl.End()
	}
	return d
}

// BuildPair builds a generated domain pair with its recommended
// blocking configuration and the default comparison scheme, labelling
// from the pair's ground truth — what Store.Domain builds, for a
// DomainPair that is already in hand.
func BuildPair(p datagen.DomainPair, workers int) *Domain {
	return Build(p.A, p.B, pairSpec(p, workers), nil)
}

// pairSpec is the build of a generated pair: its name and recommended
// blocking, the default scheme.
func pairSpec(p datagen.DomainPair, workers int) BuildSpec {
	return BuildSpec{Name: p.Name, Blocking: p.Blocking, Workers: workers}
}
