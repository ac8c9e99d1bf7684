package experiments

import (
	"transer/internal/pipeline"
)

// buildDomain fetches one built-in dataset's blocked+compared+labelled
// domain through the domain store; concurrent cells requesting the
// same dataset share a single build. The store builds with
// pipeline.Build, whose block and compare stages are the repository's
// single blocking/compare path (blocking.CandidatePairs and the query
// engine's compare operator).
func buildDomain(st *pipeline.Store, key string, opts Options) *pipeline.Domain {
	return st.Domain(pipeline.Request{
		Dataset: pipeline.MustDataset(key),
		Scale:   opts.Scale,
		Workers: opts.Workers,
	})
}
