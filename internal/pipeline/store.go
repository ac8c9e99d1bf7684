package pipeline

import (
	"fmt"
	"sync"
	"sync/atomic"

	"transer/internal/datagen"
	"transer/internal/dataset"
	"transer/internal/obs"
)

// Stats is a point-in-time snapshot of store activity. Hits counts
// domain requests served from a completed or in-flight build; Misses
// counts domain builds actually performed; Bytes approximates the
// resident size of all memoized domains.
type Stats struct {
	Hits, Misses int64
	Bytes        int64
}

// Store memoizes built-in domains. A single store may be shared by any
// number of concurrent workloads: requests for the same domain are
// single-flighted, so each distinct (dataset key, generator seed,
// scale) is generated, blocked, compared and labelled exactly once per
// store, no matter how many experiment cells ask for it at the same
// time.
//
// Domains returned from the store are shared and must be treated as
// read-only by every consumer — the same guarantee the experiment grid
// already relies on when fanning one built task out over many method
// cells.
type Store struct {
	mu      sync.Mutex
	entries map[key]*entry

	hits, misses, bytes atomic.Int64

	// Observability (nil when uninstrumented): stage builds become
	// children of obsSpan, and the hit/miss/byte counters are mirrored
	// into the registry so run reports carry them.
	obsSpan     *obs.Span
	hitC, missC *obs.Counter
	bytesG      *obs.Gauge
}

// key is the whole identity of a store domain. The dataset key and
// generator seed fix the generated databases and, with them, the
// recommended blocking, the default comparison scheme and the labels;
// the scale fixes their size. The worker count is absent: every build
// is byte-identical for every worker count.
type key struct {
	dataset string
	seed    int64
	scale   float64
}

// entry is one memoized domain. done is closed once d (or pan) is
// final; waiters block on it rather than rebuilding.
type entry struct {
	done chan struct{}
	d    *Domain
	pan  any // non-nil when the build panicked; re-raised to waiters
}

// NewStore returns an empty domain store.
func NewStore() *Store {
	return &Store{entries: map[key]*entry{}}
}

// Stats snapshots the hit/miss/byte counters.
func (s *Store) Stats() Stats {
	return Stats{Hits: s.hits.Load(), Misses: s.misses.Load(), Bytes: s.bytes.Load()}
}

// Instrument attaches the store to a tracer: every domain build records
// its generate, block, compare and label stage spans under a "pipeline"
// group span, and the hit/miss/byte counters are folded into the
// tracer's metrics registry (pipeline.store.hits_total,
// pipeline.store.misses_total, pipeline.store.bytes). Call before the
// first Domain request; a nil tracer leaves the store uninstrumented.
func (s *Store) Instrument(t *obs.Tracer) {
	if t == nil {
		return
	}
	s.obsSpan = t.Root().Child("pipeline")
	reg := t.Metrics()
	s.hitC = reg.Counter("pipeline.store.hits_total")
	s.missC = reg.Counter("pipeline.store.misses_total")
	s.bytesG = reg.Gauge("pipeline.store.bytes")
}

// Request identifies one memoized domain build.
type Request struct {
	// Dataset is the built-in generator (see MustDataset / DatasetByKey).
	Dataset datagen.Builtin
	// Scale multiplies the generated data set sizes.
	Scale float64
	// Workers bounds build parallelism. It is not part of the cache
	// key: every domain is byte-identical for every worker count.
	Workers int
}

// Domain builds (or fetches) the built-in domain of the request:
// generate, then Build with the dataset's recommended blocking and the
// default comparison scheme.
func (s *Store) Domain(req Request) *Domain {
	k := key{dataset: req.Dataset.Key, seed: req.Dataset.Seed, scale: req.Scale}
	return s.get(k, func() *Domain {
		sp := s.obsSpan.Child(fmt.Sprintf("generate:%s@%.2f", req.Dataset.Key, req.Scale))
		p := req.Dataset.Generate(req.Scale)
		sp.SetInt("records_a", int64(p.A.NumRecords()))
		sp.SetInt("records_b", int64(p.B.NumRecords()))
		sp.End()
		return Build(p.A, p.B, pairSpec(p, req.Workers), s.obsSpan)
	})
}

// get returns the domain under k, building it with build on the first
// request (single-flight: concurrent requesters wait for the builder
// instead of duplicating work).
func (s *Store) get(k key, build func() *Domain) *Domain {
	s.mu.Lock()
	if e, ok := s.entries[k]; ok {
		s.mu.Unlock()
		<-e.done
		if e.pan != nil {
			panic(e.pan)
		}
		s.hits.Add(1)
		s.hitC.Add(1)
		return e.d
	}
	e := &entry{done: make(chan struct{})}
	s.entries[k] = e
	s.mu.Unlock()

	s.misses.Add(1)
	s.missC.Add(1)
	defer close(e.done)
	defer func() {
		// A panicking build (e.g. a worker panic re-raised by the
		// parallel package) must not leave waiters blocked forever:
		// record the value for them, then let it propagate here.
		if r := recover(); r != nil {
			e.pan = r
			panic(r)
		}
	}()
	e.d = build()
	s.bytesG.Set(float64(s.bytes.Add(domainBytes(e.d))))
	return e.d
}

// domainBytes approximates the resident size of a built domain: its
// records, candidate pairs, feature matrix and labels.
func domainBytes(d *Domain) int64 {
	var n int64
	for _, db := range []*dataset.Database{d.A, d.B} {
		for _, r := range db.Records {
			n += 16 // record header
			for _, v := range r.Values {
				n += int64(len(v)) + 16
			}
		}
	}
	for _, row := range d.X {
		n += int64(len(row))*8 + 24
	}
	return n + int64(len(d.Pairs))*16 + int64(len(d.Y))*8
}
