package pipeline

import (
	"sync"
	"sync/atomic"
	"testing"

	"transer/internal/datagen"
)

// testDataset returns a small real generator wrapped so builds can be
// counted.
func testDataset(builds *atomic.Int64) datagen.Builtin {
	return datagen.Builtin{
		Key:  "DBLP-ACM",
		Seed: 101,
		Make: func(scale float64) datagen.DomainPair {
			builds.Add(1)
			return datagen.DBLPACM(scale)
		},
	}
}

func TestStoreMemoizesAcrossRequests(t *testing.T) {
	var builds atomic.Int64
	st := NewStore()
	req := Request{Dataset: testDataset(&builds), Scale: 0.02, Workers: 1}

	first := st.Domain(req)
	if got := st.Stats(); got.Misses != 1 || got.Hits != 0 {
		t.Fatalf("cold build: stats = %+v, want 1 miss, 0 hits", got)
	}
	second := st.Domain(req)
	if builds.Load() != 1 {
		t.Fatalf("generator ran %d times, want 1", builds.Load())
	}
	if got := st.Stats(); got.Misses != 1 || got.Hits != 1 {
		t.Fatalf("warm build: stats = %+v, want 1 miss, 1 hit", got)
	}
	if b := st.Stats().Bytes; b <= 0 {
		t.Fatalf("memoized bytes = %d, want > 0", b)
	}
	// The shared domain, not a copy.
	if first != second {
		t.Errorf("warm request returned a rebuilt domain, want the memoized one")
	}
}

func TestStoreMissesOnAnyDifferingInput(t *testing.T) {
	var builds atomic.Int64
	base := Request{Dataset: testDataset(&builds), Scale: 0.02, Workers: 1}

	cases := []struct {
		name string
		mod  func(Request) Request
	}{
		{"different scale", func(r Request) Request { r.Scale = 0.03; return r }},
		{"different dataset", func(r Request) Request { r.Dataset = MustDataset("MSD"); return r }},
		{"different seed", func(r Request) Request { r.Dataset.Seed++; return r }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := NewStore()
			st.Domain(base)
			before := st.Stats().Misses
			st.Domain(tc.mod(base))
			if got := st.Stats().Misses - before; got != 1 {
				t.Errorf("misses after modified request = %d, want 1", got)
			}
		})
	}
}

func TestStoreWorkerCountDoesNotFingerprint(t *testing.T) {
	var builds atomic.Int64
	st := NewStore()
	req := Request{Dataset: testDataset(&builds), Scale: 0.02, Workers: 1}
	st.Domain(req)
	req.Workers = 8
	st.Domain(req)
	if got := st.Stats(); got.Misses != 1 {
		t.Errorf("worker count changed the cache key: %d misses, want 1", got.Misses)
	}
}

// TestStoreSingleFlight hammers one store with concurrent requests for
// the same domain; the single-flight path must run the generator
// exactly once and give every caller the same artifact. Run under
// -race this also checks the entry synchronisation.
func TestStoreSingleFlight(t *testing.T) {
	var builds atomic.Int64
	st := NewStore()
	req := Request{Dataset: testDataset(&builds), Scale: 0.02, Workers: 1}

	const callers = 16
	out := make([]*Domain, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = st.Domain(req)
		}(i)
	}
	wg.Wait()

	if builds.Load() != 1 {
		t.Fatalf("generator ran %d times under concurrency, want 1", builds.Load())
	}
	if got := st.Stats(); got.Misses != 1 {
		t.Fatalf("stats = %+v, want exactly 1 miss", got)
	}
	for i := 1; i < callers; i++ {
		if out[i] != out[0] {
			t.Fatalf("caller %d received a different domain", i)
		}
	}
}

func TestStorePanicPropagatesToWaiters(t *testing.T) {
	st := NewStore()
	k := key{dataset: "test-panic"}
	catch := func() (r any) {
		defer func() { r = recover() }()
		st.get(k, func() *Domain { panic("boom") })
		return nil
	}
	if r := catch(); r != "boom" {
		t.Fatalf("builder panic = %v, want boom", r)
	}
	// A later requester must see the recorded panic, not hang.
	if r := catch(); r != "boom" {
		t.Fatalf("waiter panic = %v, want boom", r)
	}
}
