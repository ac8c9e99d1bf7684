// Package transer is the public API of this repository: a from-scratch
// Go implementation of TransER — homogeneous transfer learning for
// entity resolution (Kirielle, Christen, Ranbaduge; EDBT 2022) — along
// with the full ER pipeline it sits on (MinHash-LSH blocking,
// similarity-based record pair comparison, traditional ML
// classifiers) and the six transfer baselines the paper evaluates.
//
// The typical flow mirrors Figure 3 of the paper:
//
//	src, _ := transer.NewDomain(dbS1, dbS2)         // blocked + compared + labelled
//	tgt, _ := transer.NewDomain(dbT1, dbT2)         // labels only used for evaluation
//	res, _ := transer.Transfer(src, tgt)            // SEL → GEN → TCL
//	m := res.Evaluate(tgt)                          // P, R, F*, F1
//
// A Domain owns the candidate record pairs of two databases and their
// feature matrix; Transfer consumes a labelled source Domain and an
// unlabelled target Domain and predicts the target's match labels.
package transer

import (
	"errors"
	"fmt"

	"transer/internal/blocking"
	"transer/internal/compare"
	"transer/internal/core"
	"transer/internal/dataset"
	"transer/internal/eval"
	"transer/internal/ml"
	"transer/internal/pipeline"
)

// Re-exported pipeline types. These aliases make the internal packages'
// data model part of the public API without duplicating it.
type (
	// Database is a named schema plus records.
	Database = dataset.Database
	// Record is one entity description.
	Record = dataset.Record
	// Schema is the ordered, typed attribute list of a database.
	Schema = dataset.Schema
	// Attribute is one typed schema column.
	Attribute = dataset.Attribute
	// Pair is a candidate record pair (indices into the two databases).
	Pair = dataset.Pair
	// PairSet is a set of record pairs.
	PairSet = dataset.PairSet
	// Config holds TransER's hyper-parameters and ablation switches.
	Config = core.Config
	// Stats reports what each TransER phase did.
	Stats = core.Stats
	// Metrics bundles precision, recall, F* and F1 (percentages).
	Metrics = eval.Metrics
	// Classifier is the binary probabilistic classifier interface.
	Classifier = ml.Classifier
	// ClassifierFactory creates fresh classifiers for the GEN and TCL
	// phases.
	ClassifierFactory = ml.Factory
	// BlockingConfig parameterises MinHash-LSH blocking.
	BlockingConfig = blocking.MinHashConfig
	// ComparisonScheme maps schema attributes to similarity functions.
	ComparisonScheme = compare.Scheme
)

// Attribute type constants, re-exported for schema construction.
const (
	AttrName    = dataset.AttrName
	AttrText    = dataset.AttrText
	AttrCode    = dataset.AttrCode
	AttrYear    = dataset.AttrYear
	AttrNumeric = dataset.AttrNumeric
)

// DefaultConfig returns the default TransER parameters: k = 7,
// t_c = 0.9, t_l = 0.9, t_p = 0.90, b = 3 (1:3 balance). The paper
// quotes t_p = 0.99; this implementation defaults to 0.90 for the
// reasons documented on Config.TP.
func DefaultConfig() Config { return core.DefaultConfig() }

// Domain is one ER domain: two databases, their candidate record pairs
// after blocking, the feature matrix from the comparison step, and —
// when ground truth entity identifiers are present — the pair labels.
type Domain struct {
	// Name identifies the domain in experiment output.
	Name string
	// A and B are the two databases being linked.
	A, B *Database
	// Pairs are the blocked candidate record pairs; row i of X
	// describes Pairs[i].
	Pairs []Pair
	// X is the feature matrix (one row per candidate pair, values in
	// [0, 1]).
	X [][]float64
	// Y are the pair labels (1 = match) derived from ground truth;
	// nil when the databases carry no entity identifiers.
	Y []int
	// Scheme is the comparison scheme that produced X.
	Scheme ComparisonScheme
}

// DomainOption customises NewDomain.
type DomainOption func(*domainOptions)

type domainOptions struct {
	blocking  BlockingConfig
	scheme    *ComparisonScheme
	name      string
	dropTruth bool
}

// WithBlocking overrides the MinHash-LSH blocking configuration.
func WithBlocking(cfg BlockingConfig) DomainOption {
	return func(o *domainOptions) { o.blocking = cfg }
}

// WithScheme overrides the comparison scheme (default: type-derived
// comparators per attribute).
func WithScheme(s ComparisonScheme) DomainOption {
	return func(o *domainOptions) { o.scheme = &s }
}

// WithName sets the domain's display name (default "<A>×<B>").
func WithName(name string) DomainOption {
	return func(o *domainOptions) { o.name = name }
}

// WithoutLabels suppresses ground-truth labelling even when entity
// identifiers are present (to simulate an unlabelled target).
func WithoutLabels() DomainOption {
	return func(o *domainOptions) { o.dropTruth = true }
}

// NewDomain blocks and compares two databases into a Domain via the
// staged construction pipeline (block → compare → label; see
// internal/pipeline). The two databases must share a schema (the
// homogeneous feature space precondition). Labels are derived from
// record entity identifiers when available.
func NewDomain(a, b *Database, opts ...DomainOption) (*Domain, error) {
	if a == nil || b == nil {
		return nil, errors.New("transer: nil database")
	}
	if !a.Schema.Equal(b.Schema) {
		return nil, fmt.Errorf("transer: databases %q and %q have different schemas", a.Name, b.Name)
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	o := domainOptions{}
	for _, opt := range opts {
		opt(&o)
	}
	if o.name == "" {
		o.name = a.Name + "×" + b.Name
	}
	return domainOf(pipeline.Build(a, b, pipeline.BuildSpec{
		Name:     o.name,
		Blocking: o.blocking,
		Scheme:   o.scheme,
		NoLabels: o.dropTruth,
	}, nil)), nil
}

// domainOf converts a pipeline domain into the public Domain type.
func domainOf(d *pipeline.Domain) *Domain {
	return &Domain{
		Name:   d.Name,
		A:      d.A,
		B:      d.B,
		Pairs:  d.Pairs,
		X:      d.X,
		Y:      d.Y,
		Scheme: d.Scheme,
	}
}

// Labelled reports whether the domain carries pair labels.
func (d *Domain) Labelled() bool { return d.Y != nil }

// NumPairs returns the candidate pair count (the paper's |X|).
func (d *Domain) NumPairs() int { return len(d.Pairs) }

// NumFeatures returns the feature space dimensionality m.
func (d *Domain) NumFeatures() int {
	if len(d.X) == 0 {
		return d.Scheme.NumFeatures()
	}
	return len(d.X[0])
}

// MatchFraction returns the labelled match fraction (0 when
// unlabelled) — the class imbalance diagnostic of Table 1.
func (d *Domain) MatchFraction() float64 {
	if len(d.Y) == 0 {
		return 0
	}
	ones := 0
	for _, y := range d.Y {
		ones += y
	}
	return float64(ones) / float64(len(d.Y))
}

// Result is the outcome of a transfer run on a target domain.
type Result struct {
	// Labels are the predicted target pair labels (1 = match),
	// aligned with the target domain's Pairs.
	Labels []int
	// Proba are the match probabilities behind Labels.
	Proba []float64
	// Classifier is the trained classifier that produced Proba — the
	// TCL-phase target classifier, or the GEN-phase one on fallback
	// paths. It satisfies Proba == Classifier.PredictProba(target.X)
	// bitwise, so exporting it (internal/model, cmd/transer -model-out)
	// preserves this run's decisions exactly. Nil for baselines run via
	// RunMethod that keep their model internal.
	Classifier Classifier
	// Stats describes the TransER phases (zero for baselines run via
	// RunMethod).
	Stats Stats
}

// Matches returns the record pairs predicted as matches.
func (r *Result) Matches(target *Domain) []Pair {
	out := make([]Pair, 0)
	for i, l := range r.Labels {
		if l == 1 {
			out = append(out, target.Pairs[i])
		}
	}
	return out
}

// Evaluate scores the prediction against the target domain's ground
// truth labels. It panics if the target is unlabelled.
func (r *Result) Evaluate(target *Domain) Metrics {
	if target.Y == nil {
		panic("transer: target domain has no ground truth labels")
	}
	return eval.Evaluate(r.Labels, target.Y)
}

// TransferOption customises Transfer.
type TransferOption func(*transferOptions)

type transferOptions struct {
	cfg     Config
	factory ClassifierFactory
}

// WithConfig overrides the TransER configuration.
func WithConfig(cfg Config) TransferOption {
	return func(o *transferOptions) { o.cfg = cfg }
}

// WithClassifier overrides the classifier factory used by the GEN and
// TCL phases (default: random forest).
func WithClassifier(f ClassifierFactory) TransferOption {
	return func(o *transferOptions) { o.factory = f }
}

// Transfer runs TransER: it transfers the labelled source domain's
// knowledge to label the target domain's candidate pairs. The source
// must be labelled; the target's labels (if any) are ignored by the
// algorithm and only used by Result.Evaluate.
func Transfer(source, target *Domain, opts ...TransferOption) (*Result, error) {
	if source == nil || target == nil {
		return nil, errors.New("transer: nil domain")
	}
	if !source.Labelled() {
		return nil, fmt.Errorf("transer: source domain %q has no labels", source.Name)
	}
	o := transferOptions{cfg: DefaultConfig(), factory: DefaultClassifier()}
	for _, opt := range opts {
		opt(&o)
	}
	res, err := core.Run(source.X, source.Y, target.X, o.factory, o.cfg)
	if err != nil {
		return nil, err
	}
	return &Result{Labels: res.Labels, Proba: res.Proba, Classifier: res.Classifier, Stats: res.Stats}, nil
}
