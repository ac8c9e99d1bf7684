package query

import (
	"fmt"
	"strings"

	"transer/internal/blocking"
	"transer/internal/compare"
)

// BlockStrategy names the engine's one blocking operator, MinHash-LSH
// (blocking.CandidatePairs), in plan text, span names and responses.
const BlockStrategy = "lsh"

// Plan is a fully planned query: the logical operator chain
// Scan → Block → Compare → Score → Filter(score ≥ τ) → Limit with
// every physical parameter resolved. Plans are value-semantic and
// deterministic: equal jobs produce equal plans.
type Plan struct {
	// NameA/NameB and record counts snapshot the scanned inputs.
	NameA, NameB       string
	RecordsA, RecordsB int
	SelfJoin           bool

	// LSH is the blocking operator's MinHash configuration.
	LSH       blocking.MinHashConfig
	Scheme    compare.Scheme
	Scorer    string // scorer label for plan text
	Threshold float64
	Limit     int
}

// PlanJob validates the job and compiles its plan.
func PlanJob(job Job) (*Plan, error) {
	a, b, scheme, _, scorerLabel, selfJoin, err := job.resolve()
	if err != nil {
		return nil, err
	}
	return &Plan{
		NameA:     a.Name,
		NameB:     b.Name,
		RecordsA:  a.NumRecords(),
		RecordsB:  b.NumRecords(),
		SelfJoin:  selfJoin,
		LSH:       job.LSH,
		Scheme:    scheme,
		Scorer:    scorerLabel,
		Threshold: job.Threshold,
		Limit:     job.Limit,
	}, nil
}

// crossProduct is the unblocked pair space RecordsA × RecordsB.
func (p *Plan) crossProduct() float64 {
	return float64(p.RecordsA) * float64(p.RecordsB)
}

// Explain renders the plan in the EXPLAIN format: one line per logical
// operator. The text is deterministic for a deterministic input, so
// tests and docs can assert on it.
func (p *Plan) Explain() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "plan: %s\n", PlanSchemaVersion)
	join := "join"
	if p.SelfJoin {
		join = "self-join"
	}
	fmt.Fprintf(&sb, "scan     %s A=%s(%d) B=%s(%d) cross=%.0f\n",
		join, p.NameA, p.RecordsA, p.NameB, p.RecordsB, p.crossProduct())
	cfg := p.LSH.Normalized()
	fmt.Fprintf(&sb, "block    strategy=%s hashes=%d bands=%d q=%d\n", BlockStrategy, cfg.NumHashes, cfg.Bands, cfg.Q)
	fmt.Fprintf(&sb, "compare  features=%d [%s]  (fixed %d-row blocks, worker-count invariant)\n",
		p.Scheme.NumFeatures(), strings.Join(p.Scheme.FeatureNames(), ","), CompareBlock)
	fmt.Fprintf(&sb, "score    scorer=%s\n", p.Scorer)
	fmt.Fprintf(&sb, "filter   score >= %.4g\n", p.Threshold)
	if p.Limit > 0 {
		fmt.Fprintf(&sb, "limit    %d\n", p.Limit)
	} else {
		sb.WriteString("limit    none\n")
	}
	return sb.String()
}
