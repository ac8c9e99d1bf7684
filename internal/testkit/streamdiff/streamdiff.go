// Package streamdiff is the differential harness proving the
// streaming entity store (internal/stream) equivalent to the batch
// query engine: it replays a record set through the streaming ingest
// path in arbitrary orders, computes the batch reference — a planned
// internal/query dedup self-join followed by
// cluster.DedupComponents transitive closure — and compares the two
// partitions.
//
// The equivalence claim it checks is exactly the store's documented
// determinism contract:
//
//   - Uncapped blocking (the store default): the streaming partition
//     EQUALS the batch partition for every ingest order. Entity ID
//     numbering differs across orders (IDs are allocated in arrival
//     order), so partitions are compared as sets of record groups —
//     partition isomorphism, the strongest order-independent
//     statement.
//   - Positive bucket cap: the streaming partition COARSENS the batch
//     partition (streaming candidates are a superset; extra candidates
//     can only add match edges). Coarsens is the precise
//     characterization, checked by Coarsens.
//
// The package deliberately does not import testing, so the same checks
// run inside go tests (via the TB interface), the property runner
// (*testkit.T satisfies TB) and the cmd/stream replay binary's
// self-check mode.
package streamdiff

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"transer/internal/blocking"
	"transer/internal/cluster"
	"transer/internal/dataset"
	"transer/internal/query"
	"transer/internal/stream"
)

// TB is the minimal failure-reporting surface; *testing.T and
// *testkit.T both satisfy it.
type TB interface {
	Errorf(format string, args ...interface{})
	Logf(format string, args ...interface{})
}

// BatchPartition computes the batch reference partition of db: a
// query dedup self-join (under the store's LSH configuration so both
// sides block identically) thresholded at
// cfg.Threshold, closed transitively with cluster.DedupComponents.
// Groups are sorted by smallest member, members ascending — the
// canonical partition form used throughout this package.
func BatchPartition(ctx context.Context, db *dataset.Database, cfg stream.Config) ([][]int, error) {
	job := query.Job{
		A:         db,
		Scorer:    cfg.Scorer,
		Threshold: cfg.Threshold,
		LSH:       normalizeLSH(cfg),
		Workers:   cfg.Workers,
	}
	if len(cfg.Scheme.Comparators) > 0 {
		scheme := cfg.Scheme
		job.Scheme = &scheme
	}
	res, err := query.Run(ctx, job)
	if err != nil {
		return nil, err
	}
	pairs := make([]dataset.Pair, len(res.Matches))
	for i, m := range res.Matches {
		pairs[i] = dataset.Pair{A: m.A, B: m.B}
	}
	return cluster.DedupComponents(pairs, len(db.Records)), nil
}

// normalizeLSH applies the store's own LSH defaulting (a zero bucket
// cap means uncapped) so the batch reference blocks exactly like the
// store.
func normalizeLSH(cfg stream.Config) blocking.MinHashConfig {
	lsh := cfg.LSH
	if lsh.MaxBucketSize == 0 {
		lsh.MaxBucketSize = -1
	}
	return lsh
}

// StreamPartition builds a fresh store from cfg, ingests db's records
// in the order given by perm (perm[k] is the original index of the
// k-th ingested record; nil means natural order) and returns the final
// partition in canonical form over ORIGINAL record indices, plus the
// store for further inspection.
func StreamPartition(ctx context.Context, db *dataset.Database, cfg stream.Config, perm []int) ([][]int, *stream.Store, error) {
	st, err := stream.NewStore(cfg)
	if err != nil {
		return nil, nil, err
	}
	if perm == nil {
		perm = make([]int, len(db.Records))
		for i := range perm {
			perm[i] = i
		}
	}
	for _, idx := range perm {
		// Synthetic ids keyed by original index: unique even when the
		// source databases reuse ids, and trivially mapped back.
		rec := dataset.Record{ID: "x" + strconv.Itoa(idx), Values: db.Records[idx].Values}
		if _, err := st.Ingest(ctx, rec); err != nil {
			return nil, nil, err
		}
	}
	groups := make([][]int, 0)
	for _, ids := range st.Partition() {
		g := make([]int, 0, len(ids))
		for _, id := range ids {
			n, err := strconv.Atoi(strings.TrimPrefix(id, "x"))
			if err != nil {
				return nil, nil, fmt.Errorf("streamdiff: unexpected record id %q", id)
			}
			g = append(g, n)
		}
		sort.Ints(g)
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i][0] < groups[j][0] })
	return groups, st, nil
}

// Equal reports whether two canonical partitions are identical —
// i.e. the underlying entity labelings are isomorphic.
func Equal(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// Coarsens reports whether every group of fine is contained in exactly
// one group of coarse — the capped-blocking characterization
// (streaming coarsens batch).
func Coarsens(coarse, fine [][]int) bool {
	owner := make(map[int]int)
	for gi, g := range coarse {
		for _, m := range g {
			owner[m] = gi
		}
	}
	for _, g := range fine {
		if len(g) == 0 {
			return false
		}
		want, ok := owner[g[0]]
		if !ok {
			return false
		}
		for _, m := range g[1:] {
			if o, ok := owner[m]; !ok || o != want {
				return false
			}
		}
	}
	return true
}

// Format renders a canonical partition compactly for failure messages.
func Format(groups [][]int) string {
	var b strings.Builder
	for i, g := range groups {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%v", g)
		if i >= 24 {
			fmt.Fprintf(&b, " … (%d groups)", len(groups))
			break
		}
	}
	return b.String()
}

// diffSummary names the first group-level discrepancy between two
// canonical partitions.
func diffSummary(want, got [][]int) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d groups streamed vs %d batch", len(got), len(want))
	}
	for i := range want {
		a, b := fmt.Sprintf("%v", want[i]), fmt.Sprintf("%v", got[i])
		if a != b {
			return fmt.Sprintf("group %d: batch %s, streamed %s", i, a, b)
		}
	}
	return "identical"
}

// Check is the harness entry point: it computes the batch reference
// partition of db under cfg, then streams the records in natural order
// plus `orders` rng-shuffled orders, asserting every streaming
// partition equals the reference. Failures print the ingest order so
// the exact run replays. It returns true when every order matched.
func Check(tb TB, ctx context.Context, db *dataset.Database, cfg stream.Config, rng *rand.Rand, orders int) bool {
	want, err := BatchPartition(ctx, db, cfg)
	if err != nil {
		tb.Errorf("streamdiff: batch reference failed: %v", err)
		return false
	}
	ok := true
	run := func(label string, perm []int) {
		got, _, err := StreamPartition(ctx, db, cfg, perm)
		if err != nil {
			tb.Errorf("streamdiff: streaming run %s failed: %v", label, err)
			ok = false
			return
		}
		if !Equal(want, got) {
			tb.Errorf("streamdiff: %s order diverged from batch: %s\nbatch:  %s\nstream: %s\norder: %v",
				label, diffSummary(want, got), Format(want), Format(got), perm)
			ok = false
		}
	}
	run("natural", nil)
	for k := 0; k < orders; k++ {
		run(fmt.Sprintf("shuffle-%d", k), rng.Perm(len(db.Records)))
	}
	return ok
}

// Universe concatenates a linkage pair's two databases into the single
// dedup universe streaming operates on (A records first, then B).
func Universe(a, b *dataset.Database) *dataset.Database {
	u := &dataset.Database{Name: a.Name + "+" + b.Name, Schema: a.Schema}
	u.Records = append(u.Records, a.Records...)
	u.Records = append(u.Records, b.Records...)
	return u
}
