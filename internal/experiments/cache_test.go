package experiments

import (
	"bytes"
	"testing"

	"transer/internal/pipeline"
)

// renderWith renders one experiment into a string using the given
// store.
func renderWith(t *testing.T, name string, opts Options, st *pipeline.Store) string {
	t.Helper()
	opts.Store = st
	var buf bytes.Buffer
	if err := RenderExperiment(&buf, name, opts); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return buf.String()
}

// TestStoreSharedAcrossExperiments is the headline reuse property:
// Table 1 builds all eight domains, so a subsequent Figure 2 sharing
// the store must be served entirely from cache.
func TestStoreSharedAcrossExperiments(t *testing.T) {
	st := pipeline.NewStore()
	renderWith(t, "table1", tiny(), st)
	after1 := st.Stats()
	if after1.Misses != 8 {
		t.Fatalf("table1 built %d domains, want 8", after1.Misses)
	}
	renderWith(t, "figure2", tiny(), st)
	after2 := st.Stats()
	if after2.Misses != after1.Misses {
		t.Errorf("figure2 rebuilt %d domains that table1 already built",
			after2.Misses-after1.Misses)
	}
	if after2.Hits <= after1.Hits {
		t.Errorf("figure2 never hit the shared store (hits %d -> %d)",
			after1.Hits, after2.Hits)
	}
	if after2.Bytes <= 0 {
		t.Errorf("store reports %d memoized bytes", after2.Bytes)
	}
}

// TestColdVsWarmRenderIdentical is the cache half of the determinism
// guarantee: rendered output must be byte-identical whether domains
// are built fresh (cold store) or fetched memoized (warm store), and
// for any worker count against a warm store.
func TestColdVsWarmRenderIdentical(t *testing.T) {
	for _, name := range []string{"table1", "figure2"} {
		st := pipeline.NewStore()
		cold := renderWith(t, name, tiny(), st)
		warm := renderWith(t, name, tiny(), st)
		firstDiff(t, name+": cold vs warm store", cold, warm)

		opts := tiny()
		opts.Workers = 8
		warmParallel := renderWith(t, name, opts, st)
		firstDiff(t, name+": warm store, workers=1 vs 8", cold, warmParallel)
	}
}

// TestFullRunBuildsEachArtifactOnce is the acceptance check for the
// domain store: an -exp all style run over one shared store builds
// each distinct (dataset, generator seed, scale) domain exactly once —
// eight datasets, one build each — and a second full run is served entirely from cache with byte-identical
// output (modulo the Table 3 runtime column, which is wall-clock and
// masked here exactly as the golden comparison masks it).
func TestFullRunBuildsEachArtifactOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep too slow for -short")
	}
	st := pipeline.NewStore()
	renderAll := func() string {
		var buf bytes.Buffer
		for _, name := range Names() {
			out := renderWith(t, name, tiny(), st)
			if name == "table2" {
				out = maskRuntimes(out)
			}
			buf.WriteString(out)
		}
		return buf.String()
	}
	cold := renderAll()
	stats := st.Stats()
	if stats.Misses != 8 {
		t.Errorf("full run built %d domains, want exactly 8 (one per distinct domain)", stats.Misses)
	}
	warm := renderAll()
	warmStats := st.Stats()
	if warmStats.Misses != stats.Misses {
		t.Errorf("warm full run rebuilt %d domains", warmStats.Misses-stats.Misses)
	}
	firstDiff(t, "full run: cold vs warm store", cold, warm)
}
