package query

import (
	"context"
	"sync/atomic"

	"transer/internal/blocking"
	"transer/internal/compare"
	"transer/internal/dataset"
	"transer/internal/parallel"
)

// CompareBlock is the fixed row-block size of vectorized compare and
// score execution. Fixing the block size (rather than deriving it from
// the worker count) keeps each row's execution context identical for
// every worker count, so results are byte-identical no matter how the
// engine is sized — the same contract internal/serve's batch scoring
// established. 512 rows amortise per-block overhead while keeping
// cancellation latency in the low milliseconds.
const CompareBlock = 512

// SelfJoinPairs restricts a self-join candidate set to index pairs
// i < j, dropping self-pairs and one of each mirrored duplicate. The
// input is sorted and mirror-complete (blocking a database against
// itself yields both orders), so the result stays sorted and covers
// every unordered pair exactly once.
func SelfJoinPairs(pairs []dataset.Pair) []dataset.Pair {
	out := pairs[:0:0]
	for _, p := range pairs {
		if p.A < p.B {
			out = append(out, p)
		}
	}
	return out
}

// CompareMatrix computes the n×m feature matrix of the candidate pairs
// under the scheme in fixed CompareBlock-row blocks over up to workers
// goroutines (0 = one per CPU), checking ctx between blocks. Rows are
// written to index-addressed slots, so the matrix is byte-identical for
// every worker count. On cancellation the partial matrix is discarded.
func CompareMatrix(ctx context.Context, a, b *dataset.Database, scheme compare.Scheme, pairs []dataset.Pair, workers int) ([][]float64, error) {
	if len(pairs) == 0 {
		return nil, ctx.Err()
	}
	x := make([][]float64, len(pairs))
	var canceled atomic.Bool
	nBlocks := (len(pairs) + CompareBlock - 1) / CompareBlock
	parallel.ForEach(workers, nBlocks, func(bi int) {
		if canceled.Load() {
			return
		}
		if ctx.Err() != nil {
			canceled.Store(true)
			return
		}
		lo := bi * CompareBlock
		hi := min(lo+CompareBlock, len(pairs))
		for i := lo; i < hi; i++ {
			p := pairs[i]
			x[i] = scheme.Pair(a.Records[p.A], b.Records[p.B])
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return x, nil
}

// ScoreMatrix scores a feature matrix in fixed CompareBlock-row blocks
// over the worker pool, checking ctx between blocks. Each block is
// scored serially (workers=1 inside the scorer), so the scoring
// context of every row is fixed and the output byte-identical for any
// worker count. On cancellation the partial result is discarded and
// the context error returned.
func ScoreMatrix(ctx context.Context, scorer Scorer, x [][]float64, workers int) ([]float64, error) {
	if len(x) == 0 {
		return nil, ctx.Err()
	}
	out := make([]float64, len(x))
	var canceled atomic.Bool
	nBlocks := (len(x) + CompareBlock - 1) / CompareBlock
	parallel.ForEach(workers, nBlocks, func(bi int) {
		if canceled.Load() {
			return
		}
		if ctx.Err() != nil {
			canceled.Store(true)
			return
		}
		lo := bi * CompareBlock
		hi := min(lo+CompareBlock, len(x))
		copy(out[lo:hi], scorer.Score(x[lo:hi], 1))
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Execute runs a planned job. Each operator emits a child span under
// job.Span and counters into job.Metrics; instrumentation only records
// what the deterministic operators already did, so results are
// identical with observability on or off.
func Execute(ctx context.Context, job Job, plan *Plan) (*Result, error) {
	a, b, scheme, scorer, _, selfJoin, err := job.resolve()
	if err != nil {
		return nil, err
	}
	span, reg := job.Span, job.Metrics

	scan := span.Child("scan")
	scan.SetInt("records_a", int64(a.NumRecords()))
	scan.SetInt("records_b", int64(b.NumRecords()))
	scan.SetBool("self_join", selfJoin)
	scan.End()

	block := span.Child("block:" + BlockStrategy)
	pairs := blocking.CandidatePairs(a, b, plan.LSH)
	if selfJoin {
		pairs = SelfJoinPairs(pairs)
	}
	block.SetInt("candidates", int64(len(pairs)))
	if cross := plan.crossProduct(); cross > 0 {
		block.SetFloat("selectivity", float64(len(pairs))/cross)
	}
	block.End()
	reg.Counter("query.candidates_total").Add(int64(len(pairs)))

	cmp := span.Child("compare")
	x, err := CompareMatrix(ctx, a, b, scheme, pairs, job.Workers)
	cmp.SetInt("rows", int64(len(x)))
	cmp.SetInt("features", int64(scheme.NumFeatures()))
	cmp.End()
	if err != nil {
		return nil, err
	}
	reg.Counter("query.compared_rows_total").Add(int64(len(x)))

	score := span.Child("score")
	scores, err := ScoreMatrix(ctx, scorer, x, job.Workers)
	score.SetInt("rows", int64(len(scores)))
	score.End()
	if err != nil {
		return nil, err
	}

	filter := span.Child("filter")
	res := &Result{Plan: plan, Candidates: len(pairs)}
	for i, p := range pairs {
		if scores[i] < job.Threshold {
			continue
		}
		res.Kept++
		if job.Limit > 0 && len(res.Matches) >= job.Limit {
			continue
		}
		res.Matches = append(res.Matches, Match{
			A:     p.A,
			B:     p.B,
			IDA:   a.Records[p.A].ID,
			IDB:   b.Records[p.B].ID,
			Score: scores[i],
		})
	}
	filter.SetInt("kept", int64(res.Kept))
	filter.SetInt("returned", int64(len(res.Matches)))
	if len(pairs) > 0 {
		filter.SetFloat("selectivity", float64(res.Kept)/float64(len(pairs)))
	}
	filter.End()
	reg.Counter("query.matches_total").Add(int64(res.Kept))
	return res, nil
}
