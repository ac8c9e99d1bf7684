// Package query is the similarity-join engine that unifies the
// repository's blocking → compare → score path. A Job describes a
// batch dedup or linkage query ("all pairs with score ≥ τ"); PlanJob
// compiles it into the plan
//
//	Scan → Block → Compare → Score → Filter(score ≥ τ) → Limit
//
// with an EXPLAIN rendering. The block operator is always MinHash-LSH
// (blocking.CandidatePairs) under the job's configuration — the same
// candidate relation training (internal/pipeline), the streaming store
// (internal/stream) and repository signatures (internal/repo) use.
// Execution is vectorized over internal/parallel in fixed
// index-addressed row blocks, so results are byte-identical for every
// worker count; each operator emits an internal/obs span with
// row/candidate/selectivity attributes.
//
// The package is also the single physical implementation of the
// compare and score stages for the rest of the repository:
// internal/pipeline's compare stage, internal/experiments (via the
// pipeline store) and internal/serve's batch scoring all run on
// CompareMatrix and ScoreMatrix.
package query

import (
	"context"
	"errors"
	"fmt"

	"transer/internal/blocking"
	"transer/internal/compare"
	"transer/internal/dataset"
	"transer/internal/obs"
)

// PlanSchemaVersion identifies the plan rendering and the cmd/query
// JSON result document.
const PlanSchemaVersion = "transer.query/v1"

// Scorer turns feature vectors into match scores in [0, 1].
// model.Matcher satisfies it; MeanScorer is the model-free fallback.
// Implementations must be pure and worker-count invariant.
type Scorer interface {
	Score(x [][]float64, workers int) []float64
}

// MeanScorer scores a pair by its mean feature similarity — the
// model-free scorer for exploratory joins where no trained matcher is
// at hand. Thresholds then act directly on mean similarity.
type MeanScorer struct{}

// Score returns the per-row mean feature value.
func (MeanScorer) Score(x [][]float64, workers int) []float64 {
	return compare.MeanSimilarity(x)
}

// Job describes one similarity-join query.
type Job struct {
	// A and B are the databases to join. A nil B means a dedup
	// self-join of A: candidates are restricted to index pairs i < j.
	A, B *dataset.Database

	// Scheme overrides the comparison scheme (nil derives
	// compare.DefaultScheme from A's schema).
	Scheme *compare.Scheme
	// Comparators maps attribute names to comparator registry names
	// (compare.ByName), overriding the derived scheme's choice for
	// those attributes. Unknown attributes or comparator names are
	// errors.
	Comparators map[string]string

	// Scorer scores compared pairs; nil means MeanScorer. ScorerLabel
	// names it in plan text (defaults to "mean-similarity" for the nil
	// scorer, "custom" otherwise).
	Scorer      Scorer
	ScorerLabel string

	// Threshold keeps pairs with score ≥ Threshold.
	Threshold float64
	// Limit caps the result pairs in deterministic (A, B) index order;
	// 0 means unlimited.
	Limit int

	// LSH overrides the blocking operator's MinHash configuration
	// (zero value = blocking package defaults); generated datasets
	// pass their recommended config here.
	LSH blocking.MinHashConfig

	// Workers bounds execution goroutines (0 = one per CPU). Results
	// are byte-identical for every value.
	Workers int

	// Span, when non-nil, receives one child span per operator; Metrics
	// receives the engine's counters. Both are optional.
	Span    *obs.Span
	Metrics *obs.Registry
}

// Match is one result pair: indices into the job's databases, the
// records' ids, and the pair's score.
type Match struct {
	A, B     int
	IDA, IDB string
	Score    float64
}

// Result is one executed query.
type Result struct {
	Plan *Plan
	// Matches holds the filtered pairs in (A, B) index order, capped by
	// the job's limit.
	Matches []Match
	// Candidates counts blocked candidate pairs (after the self-join
	// restriction), Kept the pairs passing the threshold before Limit.
	Candidates int
	Kept       int
}

// Run plans and executes a job.
func Run(ctx context.Context, job Job) (*Result, error) {
	plan, err := PlanJob(job)
	if err != nil {
		return nil, err
	}
	return Execute(ctx, job, plan)
}

// resolve validates the job and fills defaults, returning the
// effective (a, b, scheme, scorer, label, selfJoin).
func (job Job) resolve() (a, b *dataset.Database, scheme compare.Scheme, scorer Scorer, label string, selfJoin bool, err error) {
	if job.A == nil {
		return nil, nil, compare.Scheme{}, nil, "", false, errors.New("query: job has no database A")
	}
	a, b = job.A, job.B
	if b == nil {
		b, selfJoin = a, true
	}
	if !a.Schema.Equal(b.Schema) {
		return nil, nil, compare.Scheme{}, nil, "", false, errors.New("query: databases A and B have different schemas")
	}
	if job.Threshold < 0 || job.Threshold > 1 {
		return nil, nil, compare.Scheme{}, nil, "", false, fmt.Errorf("query: threshold %v outside [0,1]", job.Threshold)
	}
	if job.Scheme != nil {
		scheme = *job.Scheme
	} else {
		scheme = compare.DefaultScheme(a.Schema)
	}
	if len(job.Comparators) > 0 {
		scheme, err = applyComparators(scheme, a.Schema, job.Comparators)
		if err != nil {
			return nil, nil, compare.Scheme{}, nil, "", false, err
		}
	}
	scorer, label = job.Scorer, job.ScorerLabel
	if scorer == nil {
		scorer = MeanScorer{}
		if label == "" {
			label = "mean-similarity"
		}
	} else if label == "" {
		label = "custom"
	}
	return a, b, scheme, scorer, label, selfJoin, nil
}

// applyComparators rewrites the scheme's comparator for each named
// attribute with a registry comparator, preserving feature order (one
// feature per attribute, renamed "<attr>_<comparator>"). Iteration is
// over schema order, so the result is deterministic.
func applyComparators(s compare.Scheme, sch dataset.Schema, overrides map[string]string) (compare.Scheme, error) {
	byName := make(map[string]int, len(sch.Attributes))
	for i, a := range sch.Attributes {
		byName[a.Name] = i
	}
	for attr := range overrides {
		if _, ok := byName[attr]; !ok {
			return compare.Scheme{}, fmt.Errorf("query: comparator override for unknown attribute %q (schema has %v)", attr, sch.Names())
		}
	}
	out := s
	out.Comparators = append([]compare.Comparator(nil), s.Comparators...)
	for i, c := range out.Comparators {
		attrName := ""
		if c.Attr >= 0 && c.Attr < len(sch.Attributes) {
			attrName = sch.Attributes[c.Attr].Name
		}
		simName, ok := overrides[attrName]
		if !ok {
			continue
		}
		sim, err := compare.ByName(simName)
		if err != nil {
			return compare.Scheme{}, err
		}
		out.Comparators[i] = compare.Comparator{
			Attr: c.Attr,
			Name: attrName + "_" + simName,
			Sim:  sim,
		}
	}
	return out, nil
}
