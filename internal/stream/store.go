// Package stream is the live entity store: records stream in one at a
// time, each is blocked against everything already stored through an
// incrementally maintained MinHash-LSH index (blocking.Index — no
// rebuilds), scored by the same query.ScoreMatrix path batch queries
// use, and folded into an incrementally maintained transitive-closure
// clustering (union-find, as cluster.DedupComponents computes in
// batch).
//
// # Determinism contract
//
// With the bucket cap disabled (the store's default), the candidate
// relation depends only on record content, every default comparator is
// symmetric in its arguments, and transitive closure is
// order-independent — so the final entity PARTITION (which records
// group together) is identical to the batch internal/query dedup
// self-join + cluster.DedupComponents result for EVERY ingest order.
// internal/testkit/streamdiff is the differential harness that proves
// this.
//
// Two surfaces legitimately depend on ingest order and are the
// documented extent of order sensitivity:
//
//   - Entity ID NUMBERING. IDs are allocated monotonically as records
//     arrive, so a different order numbers the same partition
//     differently. The partitions are isomorphic (related by a
//     bijection of entity IDs), never structurally different.
//   - With a POSITIVE bucket cap, streaming candidates are a superset
//     of batch candidates (buckets only grow, so a pair suppressed by
//     a full bucket at batch end may have been generated before the
//     bucket filled). More candidates can only add match edges, so the
//     streaming partition is then a coarsening of the batch partition:
//     every batch cluster is contained in exactly one streaming
//     cluster.
//
// # Entity ID stability
//
// A record's entity ID never changes except by a journaled merge: when
// a new record matches records from k ≥ 2 existing entities, the
// smallest (oldest) entity ID survives and the other k-1 are retired,
// each retirement recorded as a Merge{Seq, From, Into} journal entry.
// IDs are never reused.
package stream

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"log/slog"
	"sync"
	"sync/atomic"

	"transer/internal/blocking"
	"transer/internal/compare"
	"transer/internal/dataset"
	"transer/internal/model"
	"transer/internal/obs"
	"transer/internal/query"
)

// Config parameterises a Store.
type Config struct {
	// Schema fixes the record shape; every ingested record must have
	// exactly len(Schema.Attributes) values.
	Schema dataset.Schema
	// Scheme is the pairwise comparison scheme (zero Comparators
	// derives compare.DefaultScheme from Schema).
	Scheme compare.Scheme
	// Scorer scores comparison vectors; nil means query.MeanScorer.
	Scorer query.Scorer
	// Threshold is the match decision boundary: candidate pairs with
	// score ≥ Threshold become match edges.
	Threshold float64
	// LSH configures the online blocking index. A zero MaxBucketSize
	// is resolved to -1 (uncapped) — the configuration under which
	// streaming clustering is exactly order-independent; set it
	// explicitly positive to trade that for bounded bucket fan-out.
	LSH blocking.MinHashConfig
	// Workers bounds scoring goroutines (0 = one per CPU). Results are
	// byte-identical for every value.
	Workers int
	// Metrics receives the stream.* counter family; nil disables.
	Metrics *obs.Registry
	// Logger receives one structured decision event per live ingest
	// ("stream.ingest", keyed by WAL sequence and the trace carried in
	// ctx) and per resolve probe at debug level. WAL replay does not
	// re-log. Logging observes decisions already made — it
	// never feeds back into scoring or clustering. Nil discards events.
	Logger *slog.Logger
}

// FromMatcher builds the streaming configuration that scores exactly
// like a loaded model artifact: its schema, its comparison scheme, its
// classifier and its decision threshold.
func FromMatcher(m *model.Matcher) Config {
	return Config{
		Schema:    m.Schema,
		Scheme:    m.Scheme,
		Scorer:    m,
		Threshold: m.Artifact.Threshold,
	}
}

// Merge is one journaled entity retirement: while ingesting record
// Seq, entity From was merged into the surviving (smaller, older)
// entity Into.
type Merge struct {
	Seq  int    `json:"seq"`
	From uint64 `json:"from"`
	Into uint64 `json:"into"`
}

// Match is one stored record whose score against the probe cleared the
// threshold.
type Match struct {
	// Seq is the stored record's insertion sequence.
	Seq int `json:"seq"`
	// RecordID is its record identifier.
	RecordID string `json:"record_id"`
	// EntityID is the entity it belonged to when the probe was scored
	// (for Ingest: before any merges this ingest caused).
	EntityID uint64 `json:"entity_id"`
	// Score is the match score in [0, 1].
	Score float64 `json:"score"`
}

// IngestResult reports what one Ingest did.
type IngestResult struct {
	// Seq is the record's insertion sequence in the store.
	Seq int `json:"seq"`
	// RecordID is the stored record id ("r<seq>" when the input had
	// none).
	RecordID string `json:"record_id"`
	// EntityID is the entity the record resolved into.
	EntityID uint64 `json:"entity_id"`
	// Created is true when no stored record matched and a fresh entity
	// was allocated.
	Created bool `json:"created"`
	// Candidates is the number of stored records the index proposed.
	Candidates int `json:"candidates"`
	// Matches are the candidates that cleared the threshold, in
	// ascending stored-sequence order.
	Matches []Match `json:"matches,omitempty"`
	// Merges are the journal entries this ingest appended (non-empty
	// only when the record bridged k ≥ 2 existing entities).
	Merges []Merge `json:"merges,omitempty"`
}

// ResolveResult reports a read-only resolution probe.
type ResolveResult struct {
	// Matched is true when at least one stored record cleared the
	// threshold.
	Matched bool `json:"matched"`
	// EntityID is the best-matching entity (highest best score, ties
	// to the smaller entity ID); 0 when Matched is false.
	EntityID uint64 `json:"entity_id,omitempty"`
	// Score is the best match score; 0 when Matched is false.
	Score float64 `json:"score,omitempty"`
	// Candidates is the number of stored records the index proposed.
	Candidates int `json:"candidates"`
	// Matches are all stored records clearing the threshold, in
	// ascending stored-sequence order.
	Matches []Match `json:"matches,omitempty"`
}

// Stats is a point-in-time summary of the store.
type Stats struct {
	Records  int    `json:"records"`
	Entities int    `json:"entities"`
	Merges   int    `json:"merges"`
	Resolves int64  `json:"resolves"`
	NextID   uint64 `json:"next_entity_id"`
}

// Store is the live entity store. All methods are safe for concurrent
// use; Ingest is serialised, Resolve probes run under a read lock.
type Store struct {
	schema    dataset.Schema
	scheme    compare.Scheme
	scorer    query.Scorer
	threshold float64
	workers   int

	logger *slog.Logger

	mIngested   *obs.Counter
	mResolved   *obs.Counter
	mCandidates *obs.Counter
	mMatches    *obs.Counter
	mMerges     *obs.Counter
	gRecords    *obs.Gauge
	gEntities   *obs.Gauge
	gWALSeq     *obs.Gauge
	gSnapLag    *obs.Gauge

	// snapLen is the record count at the last snapshot boundary
	// (written/loaded), read without the store lock by lag gauges.
	snapLen atomic.Int64

	mu      sync.RWMutex
	index   *blocking.Index
	records []dataset.Record // normalized: ID + Values only
	byID    map[string]int
	parent  []int    // union-find over record seqs
	entity  []uint64 // entity id, authoritative at each root
	nextID  uint64
	journal []Merge
	wal     *WAL
	nProbes int64
}

// NewStore builds an empty store. The zero-value parts of cfg resolve
// to: compare.DefaultScheme(Schema), query.MeanScorer, an uncapped LSH
// index.
func NewStore(cfg Config) (*Store, error) {
	if len(cfg.Schema.Attributes) == 0 {
		return nil, fmt.Errorf("stream: config needs a schema with at least one attribute")
	}
	if cfg.Threshold < 0 || cfg.Threshold > 1 {
		return nil, fmt.Errorf("stream: threshold %v outside [0, 1]", cfg.Threshold)
	}
	scheme := cfg.Scheme
	if len(scheme.Comparators) == 0 {
		scheme = compare.DefaultScheme(cfg.Schema)
	}
	scorer := cfg.Scorer
	if scorer == nil {
		scorer = query.MeanScorer{}
	}
	lsh := cfg.LSH
	if lsh.MaxBucketSize == 0 {
		lsh.MaxBucketSize = -1
	}
	logger := cfg.Logger
	if logger == nil {
		logger = obs.DiscardLogger()
	}
	reg := cfg.Metrics
	return &Store{
		schema:      cfg.Schema,
		scheme:      scheme,
		scorer:      scorer,
		threshold:   cfg.Threshold,
		workers:     cfg.Workers,
		logger:      logger,
		mIngested:   reg.Counter("stream.ingested_total"),
		mResolved:   reg.Counter("stream.resolved_total"),
		mCandidates: reg.Counter("stream.candidates_total"),
		mMatches:    reg.Counter("stream.match_edges_total"),
		mMerges:     reg.Counter("stream.merges_total"),
		gRecords:    reg.Gauge("stream.records"),
		gEntities:   reg.Gauge("stream.entities"),
		gWALSeq:     reg.Gauge("stream.wal_seq"),
		gSnapLag:    reg.Gauge("stream.records_since_snapshot"),
		index:       blocking.NewIndex(lsh),
		byID:        make(map[string]int),
		nextID:      1,
	}, nil
}

// Schema returns the store's record schema.
func (s *Store) Schema() dataset.Schema { return s.schema }

// Threshold returns the match decision boundary.
func (s *Store) Threshold() float64 { return s.threshold }

// Len returns the number of stored records.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.records)
}

// findRO walks to the union-find root without path compression, so it
// is safe under the read lock.
func (s *Store) findRO(x int) int {
	for s.parent[x] != x {
		x = s.parent[x]
	}
	return x
}

// find walks with path halving; callers must hold the write lock.
func (s *Store) find(x int) int {
	for s.parent[x] != x {
		s.parent[x] = s.parent[s.parent[x]]
		x = s.parent[x]
	}
	return x
}

// scoreEval is the full outcome of blocking and scoring one probe:
// the proposed candidate sequences with their comparison vectors and
// scores (parallel slices, ascending stored-seq order).
type scoreEval struct {
	cands  []int
	x      [][]float64
	scores []float64
}

// evaluate blocks and scores a probe record against the stored
// records. Callers hold at least the read lock.
func (s *Store) evaluate(ctx context.Context, r dataset.Record, sig blocking.Signature) (scoreEval, error) {
	cands := s.index.Candidates(sig)
	if len(cands) == 0 {
		return scoreEval{}, ctx.Err()
	}
	x := make([][]float64, len(cands))
	for i, c := range cands {
		// Stored record first, probe second — the batch self-join
		// orientation Pair(r_i, r_j), i < j. Default comparators are
		// symmetric, so orientation cannot change scores anyway.
		x[i] = s.scheme.Pair(s.records[c], r)
	}
	scores, err := query.ScoreMatrix(ctx, s.scorer, x, s.workers)
	if err != nil {
		return scoreEval{cands: cands}, err
	}
	return scoreEval{cands: cands, x: x, scores: scores}, nil
}

// matches extracts the candidates clearing the threshold from an
// evaluation. Callers hold at least the read lock.
func (s *Store) matches(ev scoreEval) []Match {
	var out []Match
	for i, c := range ev.cands {
		if ev.scores[i] >= s.threshold {
			out = append(out, Match{
				Seq:      c,
				RecordID: s.records[c].ID,
				EntityID: s.entity[s.findRO(c)],
				Score:    ev.scores[i],
			})
		}
	}
	return out
}

// score blocks and scores a probe record, returning the proposed
// candidate count and the matches clearing the threshold (ascending
// stored-seq order). Callers hold at least the read lock.
func (s *Store) score(ctx context.Context, r dataset.Record, sig blocking.Signature) (int, []Match, error) {
	ev, err := s.evaluate(ctx, r, sig)
	if err != nil {
		return len(ev.cands), nil, err
	}
	return len(ev.cands), s.matches(ev), nil
}

// Ingest admits one record into the store: block, score, then either
// allocate a fresh entity (no matches) or union the record into the
// matched entities, journaling every merge. The store is mutated only
// after scoring (and the WAL append, when attached) succeed, so a
// canceled context or failed write leaves the store unchanged.
func (s *Store) Ingest(ctx context.Context, r dataset.Record) (IngestResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ingestLocked(ctx, r, true)
}

func (s *Store) ingestLocked(ctx context.Context, r dataset.Record, logWAL bool) (IngestResult, error) {
	if len(r.Values) != len(s.schema.Attributes) {
		return IngestResult{}, fmt.Errorf("stream: record has %d values, schema has %d attributes",
			len(r.Values), len(s.schema.Attributes))
	}
	seq := len(s.records)
	id := r.ID
	if id == "" {
		id = fmt.Sprintf("r%d", seq)
	}
	if prev, dup := s.byID[id]; dup {
		return IngestResult{}, fmt.Errorf("stream: record id %q already stored (seq %d)", id, prev)
	}
	stored := dataset.Record{ID: id, Values: append([]string(nil), r.Values...)}

	sig := s.index.Signature(stored)
	nCands, matches, err := s.score(ctx, stored, sig)
	if err != nil {
		return IngestResult{}, err
	}
	if logWAL && s.wal != nil {
		if err := s.wal.Append(seq, stored.ID, stored.Values); err != nil {
			return IngestResult{}, err
		}
	}

	// Point of no return: mutate.
	s.index.Add(sig)
	s.records = append(s.records, stored)
	s.byID[id] = seq
	s.parent = append(s.parent, seq)
	s.entity = append(s.entity, 0)

	res := IngestResult{Seq: seq, RecordID: id, Candidates: nCands, Matches: matches}
	if len(matches) == 0 {
		e := s.nextID
		s.nextID++
		s.entity[seq] = e
		res.EntityID = e
		res.Created = true
	} else {
		for _, m := range matches {
			rootNew, rootOld := s.find(seq), s.find(m.Seq)
			if rootNew == rootOld {
				continue
			}
			eNew, eOld := s.entity[rootNew], s.entity[rootOld]
			s.parent[rootNew] = rootOld
			s.entity[rootNew] = 0
			switch {
			case eNew == 0 || eNew == eOld:
				// Fresh record adopting its first entity.
			case eNew < eOld:
				s.entity[rootOld] = eNew
				res.Merges = append(res.Merges, Merge{Seq: seq, From: eOld, Into: eNew})
			default:
				res.Merges = append(res.Merges, Merge{Seq: seq, From: eNew, Into: eOld})
			}
		}
		s.journal = append(s.journal, res.Merges...)
		res.EntityID = s.entity[s.find(seq)]
	}

	s.mIngested.Add(1)
	s.mCandidates.Add(int64(nCands))
	s.mMatches.Add(int64(len(matches)))
	s.mMerges.Add(int64(len(res.Merges)))
	s.gRecords.Set(float64(len(s.records)))
	s.gEntities.Set(float64(s.entityCount()))
	// WAL sequence = records admitted (the next seq to be written);
	// snapshot lag = records admitted since the last snapshot boundary.
	s.gWALSeq.Set(float64(len(s.records)))
	s.gSnapLag.Set(float64(int64(len(s.records)) - s.snapLen.Load()))
	if logWAL {
		// Live ingest only — WAL replay must not re-log decisions it is
		// merely reapplying.
		s.logger.LogAttrs(ctx, slog.LevelInfo, "stream.ingest",
			slog.Int("seq", seq),
			slog.String("record_id", id),
			slog.Int64("entity_id", int64(res.EntityID)),
			slog.Bool("created", res.Created),
			slog.Int("candidates", nCands),
			slog.Int("matches", len(matches)),
			slog.Int("merges", len(res.Merges)))
	}
	return res, nil
}

// entityCount is the number of live entities: allocated minus retired.
func (s *Store) entityCount() int {
	return int(s.nextID-1) - len(s.journal)
}

// CandidateScore is one blocked candidate's full comparison breakdown:
// the per-comparator feature vector (aligned with Features()), the
// classifier score, and whether it cleared the threshold.
type CandidateScore struct {
	Seq      int       `json:"seq"`
	RecordID string    `json:"record_id"`
	EntityID uint64    `json:"entity_id"`
	Vector   []float64 `json:"vector"`
	Score    float64   `json:"score"`
	Matched  bool      `json:"matched"`
}

// Explanation is the decision provenance of one resolve probe: every
// blocked candidate with its comparison vector and score, the feature
// names the vectors are aligned with, the decision threshold, and the
// journaled merge history of the winning entity.
type Explanation struct {
	Threshold  float64          `json:"threshold"`
	Features   []string         `json:"features"`
	Candidates []CandidateScore `json:"candidates"`
	// MergePath is the journal subsequence whose retirements flowed
	// (transitively) into the resolved entity, in journal order — how
	// the winning entity came to span the records it spans. Empty when
	// the probe did not match or the entity never absorbed a merge.
	MergePath []Merge `json:"merge_path,omitempty"`
}

// Resolve probes a record against the store without admitting it:
// block, score, and report the best-matching entity. Safe to run
// concurrently with other resolves.
func (s *Store) Resolve(ctx context.Context, r dataset.Record) (ResolveResult, error) {
	res, _, err := s.resolve(ctx, r, false)
	return res, err
}

// ResolveExplain is Resolve plus full decision provenance.
func (s *Store) ResolveExplain(ctx context.Context, r dataset.Record) (ResolveResult, *Explanation, error) {
	return s.resolve(ctx, r, true)
}

func (s *Store) resolve(ctx context.Context, r dataset.Record, explain bool) (ResolveResult, *Explanation, error) {
	if len(r.Values) != len(s.schema.Attributes) {
		return ResolveResult{}, nil, fmt.Errorf("stream: record has %d values, schema has %d attributes",
			len(r.Values), len(s.schema.Attributes))
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	sig := s.index.Signature(r)
	ev, err := s.evaluate(ctx, r, sig)
	if err != nil {
		return ResolveResult{}, nil, err
	}
	matches := s.matches(ev)
	res := ResolveResult{Candidates: len(ev.cands), Matches: matches}
	for _, m := range matches {
		if !res.Matched || m.Score > res.Score || (m.Score == res.Score && m.EntityID < res.EntityID) {
			res.Matched = true
			res.EntityID = m.EntityID
			res.Score = m.Score
		}
	}
	var exp *Explanation
	if explain {
		exp = &Explanation{
			Threshold:  s.threshold,
			Features:   s.scheme.FeatureNames(),
			Candidates: make([]CandidateScore, len(ev.cands)),
			MergePath:  s.mergePathLocked(res.EntityID),
		}
		for i, c := range ev.cands {
			exp.Candidates[i] = CandidateScore{
				Seq:      c,
				RecordID: s.records[c].ID,
				EntityID: s.entity[s.findRO(c)],
				Vector:   ev.x[i],
				Score:    ev.scores[i],
				Matched:  ev.scores[i] >= s.threshold,
			}
		}
	}
	s.mResolved.Add(1)
	s.mCandidates.Add(int64(len(ev.cands)))
	s.nProbes++
	s.logger.LogAttrs(ctx, slog.LevelDebug, "stream.resolve",
		slog.String("record_id", r.ID),
		slog.Bool("matched", res.Matched),
		slog.Int64("entity_id", int64(res.EntityID)),
		slog.Float64("score", res.Score),
		slog.Int("candidates", res.Candidates))
	return res, exp, nil
}

// MergePath returns the journal subsequence whose retirements flowed
// (transitively) into entityID, in journal order — the provenance of
// how that entity came to span its records.
func (s *Store) MergePath(entityID uint64) []Merge {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.mergePathLocked(entityID)
}

// mergePathLocked walks the journal backwards keeping the set of
// entity IDs that fed into entityID: an entry merging From into any
// member adds From to the set. Callers hold at least the read lock.
func (s *Store) mergePathLocked(entityID uint64) []Merge {
	if entityID == 0 {
		return nil
	}
	into := map[uint64]bool{entityID: true}
	var rev []Merge
	for i := len(s.journal) - 1; i >= 0; i-- {
		m := s.journal[i]
		if into[m.Into] {
			into[m.From] = true
			rev = append(rev, m)
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Features returns the comparison-scheme feature names in vector
// order — the alignment key for Explanation and query provenance.
func (s *Store) Features() []string { return s.scheme.FeatureNames() }

// PublishLag refreshes the streaming lag gauges (stream.wal_seq,
// stream.records_since_snapshot) without waiting for the next ingest —
// metric scrapes call it so lag is current even on an idle store.
func (s *Store) PublishLag() {
	if s == nil {
		return
	}
	s.mu.RLock()
	n := int64(len(s.records))
	s.mu.RUnlock()
	s.gWALSeq.Set(float64(n))
	s.gSnapLag.Set(float64(n - s.snapLen.Load()))
}

// EntityOf returns the current entity ID of a stored record by id.
func (s *Store) EntityOf(recordID string) (uint64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	seq, ok := s.byID[recordID]
	if !ok {
		return 0, false
	}
	return s.entity[s.findRO(seq)], true
}

// Partition returns the current clustering as entity ID → member
// record IDs in insertion order.
func (s *Store) Partition() map[uint64][]string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[uint64][]string)
	for seq, r := range s.records {
		e := s.entity[s.findRO(seq)]
		out[e] = append(out[e], r.ID)
	}
	return out
}

// Journal returns a copy of the merge journal in append order.
func (s *Store) Journal() []Merge {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]Merge(nil), s.journal...)
}

// Stats returns a point-in-time summary.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{
		Records:  len(s.records),
		Entities: s.entityCount(),
		Merges:   len(s.journal),
		Resolves: s.nProbes,
		NextID:   s.nextID,
	}
}

// Fingerprint returns a SHA-256 hex digest of the store's logical
// state: schema, every stored record, every record's current entity
// assignment, the merge journal, the entity ID allocator, and the
// blocking index. Two stores fed the same records in the same order
// fingerprint identically — this is the bitwise identity
// snapshot/restore and WAL replay are tested against.
func (s *Store) Fingerprint() (string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.fingerprintLocked()
}

func (s *Store) fingerprintLocked() (string, error) {
	h := sha256.New()
	w := fpWriter{h: h}
	w.str("transer.stream/v1")
	w.u64(uint64(len(s.schema.Attributes)))
	for _, a := range s.schema.Attributes {
		w.str(a.Name)
		w.str(a.Type.String())
	}
	w.u64(uint64(len(s.records)))
	for seq, r := range s.records {
		w.str(r.ID)
		w.u64(uint64(len(r.Values)))
		for _, v := range r.Values {
			w.str(v)
		}
		w.u64(s.entity[s.findRO(seq)])
	}
	w.u64(uint64(len(s.journal)))
	for _, m := range s.journal {
		w.u64(uint64(m.Seq))
		w.u64(m.From)
		w.u64(m.Into)
	}
	w.u64(s.nextID)
	if err := s.index.WriteFingerprint(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// fpWriter length-prefixes values into a hash (hash.Hash writes never
// fail).
type fpWriter struct{ h hash.Hash }

func (w fpWriter) u64(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	w.h.Write(buf[:])
}

func (w fpWriter) str(v string) {
	w.u64(uint64(len(v)))
	w.h.Write([]byte(v))
}
