package transer

import (
	"errors"
	"fmt"
	"sort"

	"transer/internal/cluster"
	"transer/internal/core"
	"transer/internal/dataset"
	"transer/internal/model"
	"transer/internal/pipeline"
	"transer/internal/repo"
)

// This file exposes the paper's future-work extensions (Section 6),
// the match-clustering post-processing step, and the memoized domain
// store through the public API.

// CacheStats reports a DomainStore's activity: domain requests served
// from cache (Hits), domains built (Misses), and the approximate
// resident bytes of memoized domains.
type CacheStats = pipeline.Stats

// DomainStore memoizes built-in dataset domain construction — the
// production-reuse extension of the paper's pipeline. Each whole domain
// (generated databases, candidate pairs, feature matrix, labels) is
// cached under its (dataset key, generator seed, scale) identity, and
// concurrent requests for the same domain are single-flighted so it is
// built exactly once. Cached domains are byte-identical to what a
// rebuild would produce, and returned Domains share them: treat every
// field as read-only.
type DomainStore struct {
	store *pipeline.Store
	// Workers bounds build parallelism (0 = one per CPU). It never
	// affects results, only wall clock.
	Workers int
}

// NewDomainStore returns an empty memoized domain store.
func NewDomainStore() *DomainStore {
	return &DomainStore{store: pipeline.NewStore()}
}

// Domain builds (or fetches) one built-in dataset's blocked, compared
// and labelled domain at the given scale. Valid keys are listed by
// DatasetKeys.
func (s *DomainStore) Domain(key string, scale float64) (*Domain, error) {
	ds, ok := pipeline.DatasetByKey(key)
	if !ok {
		return nil, fmt.Errorf("transer: unknown built-in dataset %q (see DatasetKeys)", key)
	}
	return domainOf(s.store.Domain(pipeline.Request{
		Dataset: ds,
		Scale:   scale,
		Workers: s.Workers,
	})), nil
}

// Stats snapshots the store's cache counters.
func (s *DomainStore) Stats() CacheStats { return s.store.Stats() }

// SourceScore ranks one candidate source domain's transferability to
// a target.
type SourceScore struct {
	// Index into the candidate slice, Name copied from it.
	Index int
	Name  string
	// Score is the similarity of the source's domain signature to the
	// target's, in [0, 1]: the score model-repository search ranks
	// catalogued models by.
	Score float64
	// Components breaks Score into its parts.
	Components repo.Components
}

// RankSources scores labelled candidate source domains against a
// target, best first (ties by candidate order) — the "choose the best
// source domain" extension. Every domain is reduced to its model
// repository signature (field statistics, a token sketch and the
// dominant compare vectors) and scored with repo.Similarity, as
// catalog search does. All domains must share the target's feature
// space; the target needs no labels.
func RankSources(sources []*Domain, target *Domain) ([]SourceScore, error) {
	if len(sources) == 0 {
		return nil, errors.New("transer: no candidate sources")
	}
	if target == nil || len(target.X) == 0 {
		return nil, errors.New("transer: empty target domain")
	}
	tsig, err := signatureOf(target)
	if err != nil {
		return nil, err
	}
	out := make([]SourceScore, len(sources))
	for i, s := range sources {
		if s == nil {
			return nil, fmt.Errorf("transer: nil source at %d", i)
		}
		if !s.Labelled() {
			return nil, fmt.Errorf("transer: source %q has no labels", s.Name)
		}
		if s.NumFeatures() != target.NumFeatures() {
			return nil, fmt.Errorf("transer: source %q has %d features, target has %d", s.Name, s.NumFeatures(), target.NumFeatures())
		}
		ssig, err := signatureOf(s)
		if err != nil {
			return nil, err
		}
		out[i] = SourceScore{Index: i, Name: s.Name}
		out[i].Score, out[i].Components = repo.Similarity(tsig, ssig)
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Score > out[b].Score })
	return out, nil
}

// signatureOf reduces a domain to its model repository signature.
func signatureOf(d *Domain) (*model.Signature, error) {
	if d.A == nil || d.B == nil {
		return nil, fmt.Errorf("transer: domain %q has no databases to sign", d.Name)
	}
	return repo.BuildSignature(d.A, d.B, d.X), nil
}

// TransferMultiSource ranks the candidate sources and transfers from
// the best one.
func TransferMultiSource(sources []*Domain, target *Domain, opts ...TransferOption) (*Result, []SourceScore, error) {
	ranking, err := RankSources(sources, target)
	if err != nil {
		return nil, nil, err
	}
	best := sources[ranking[0].Index]
	res, err := Transfer(best, target, opts...)
	if err != nil {
		return nil, ranking, err
	}
	return res, ranking, nil
}

// TargetLabels maps target pair indices (into target.Pairs) to known
// true labels for the partially-labelled-target extension.
type TargetLabels = core.TargetLabels

// TransferSemiSupervised runs TransER with some known target labels
// anchoring the final classifier.
func TransferSemiSupervised(source, target *Domain, known TargetLabels, opts ...TransferOption) (*Result, error) {
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
	res, err := core.RunSemiSupervised(source.X, source.Y, target.X, known, o.factory, o.cfg)
	if err != nil {
		return nil, err
	}
	return &Result{Labels: res.Labels, Proba: res.Proba, Stats: res.Stats}, nil
}

// Oracle answers label queries for target pair indices (1 = match).
type Oracle = core.Oracle

// ActiveResult is the outcome of an active-learning transfer.
type ActiveResult struct {
	*Result
	// Queried lists the target pair indices sent to the oracle.
	Queried []int
}

// TransferActive integrates TransER with uncertainty-sampling active
// learning: the budget target pairs whose pseudo labels are least
// confident are sent to the oracle, and its answers anchor the final
// classifier as in TransferSemiSupervised.
func TransferActive(source, target *Domain, oracle Oracle, budget int, opts ...TransferOption) (*ActiveResult, error) {
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
	res, err := core.RunActive(source.X, source.Y, target.X, o.factory, o.cfg, oracle, budget)
	if err != nil {
		return nil, err
	}
	return &ActiveResult{
		Result:  &Result{Labels: res.Labels, Proba: res.Proba, Stats: res.Stats},
		Queried: res.Queried,
	}, nil
}

// EntityCluster is one resolved entity after clustering: record
// indices into the target's A and B databases.
type EntityCluster = cluster.Cluster

// ClusterMatches resolves the pairwise prediction into consistent
// entity clusters via transitive closure (the post-processing step of
// Figure 1's pipeline).
func ClusterMatches(res *Result, target *Domain) []EntityCluster {
	edges := cluster.EdgesFromPrediction(target.Pairs, res.Labels, res.Proba)
	return cluster.ConnectedComponents(edges, target.A.NumRecords(), target.B.NumRecords())
}

// OneToOneMatches enforces at most one match per record on each side,
// preferring high-probability pairs — the standard post-processing for
// clean two-database linkage. It returns the retained pairs and the
// corresponding label vector aligned with target.Pairs.
func OneToOneMatches(res *Result, target *Domain) ([]Pair, []int) {
	edges := cluster.EdgesFromPrediction(target.Pairs, res.Labels, res.Proba)
	kept := cluster.GreedyOneToOne(edges)
	pairs := make([]dataset.Pair, len(kept))
	for i, e := range kept {
		pairs[i] = e.Pair
	}
	return pairs, cluster.Labels(target.Pairs, kept)
}
