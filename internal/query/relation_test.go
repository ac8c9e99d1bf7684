package query_test

import (
	"context"
	"testing"

	"transer/internal/blocking"
	"transer/internal/datagen"
	"transer/internal/dataset"
	"transer/internal/query"
)

// TestRunCandidatesEqualPipelineBlock pins the single candidate
// relation: a batch query blocks exactly the pairs the training
// pipeline blocks, on every builtin dataset. At threshold 0 every
// candidate is kept, so the matches are the candidate list itself.
func TestRunCandidatesEqualPipelineBlock(t *testing.T) {
	for _, bi := range datagen.Builtins() {
		pair := bi.Make(0.1)
		res, err := query.Run(context.Background(), query.Job{A: pair.A, B: pair.B, LSH: pair.Blocking})
		if err != nil {
			t.Fatalf("%s: %v", bi.Key, err)
		}
		want := blocking.CandidatePairs(pair.A, pair.B, pair.Blocking)
		if res.Candidates != len(want) || len(res.Matches) != len(want) {
			t.Fatalf("%s: query has %d candidates (%d matches), blocking.CandidatePairs %d pairs",
				bi.Key, res.Candidates, len(res.Matches), len(want))
		}
		for i, m := range res.Matches {
			if got := (dataset.Pair{A: m.A, B: m.B}); got != want[i] {
				t.Fatalf("%s: candidate %d = %v, blocking.CandidatePairs has %v", bi.Key, i, got, want[i])
			}
		}
	}
}
