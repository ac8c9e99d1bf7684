package transfer

import (
	"math"
	"strings"
	"testing"

	"transer/internal/datagen"
	"transer/internal/dataset"
	"transer/internal/embed"
)

// TestDRMisalignedPairsError: DR re-embeds raw record pairs, so pair
// lists that do not line up with the feature matrices must be rejected
// before any embedding work happens.
func TestDRMisalignedPairsError(t *testing.T) {
	src := datagen.DBLPACM(0.05)
	tgt := datagen.DBLPScholar(0.05)
	task, _ := domainTask(src, tgt)
	task.SourcePairs = task.SourcePairs[:len(task.SourcePairs)-1]
	_, err := DR{}.Run(task, factory())
	if err == nil || !strings.Contains(err.Error(), "misaligned") {
		t.Fatalf("misaligned pairs returned %v, want a misalignment error", err)
	}
}

// TestDRSeedDeterminism: hashing embeddings and density-ratio
// resampling are both seeded; two runs with the same seed must agree
// bitwise.
func TestDRSeedDeterminism(t *testing.T) {
	src := datagen.DBLPACM(0.05)
	tgt := datagen.DBLPScholar(0.05)
	task, _ := domainTask(src, tgt)
	m := DR{Seed: 5}
	a, err := m.Run(task, factory())
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	b, err := m.Run(task, factory())
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	for i := range a.Proba {
		if a.Proba[i] != b.Proba[i] {
			t.Fatalf("row %d: %v vs %v across identically seeded runs", i, a.Proba[i], b.Proba[i])
		}
	}
}

// TestDRRepresentMemoBitwise: DR embeds each distinct attribute value
// once and reuses the vector across every pair it occurs in. The
// memoized representation must equal embedding every pair's values
// afresh, bit for bit.
func TestDRRepresentMemoBitwise(t *testing.T) {
	task, _ := domainTask(datagen.DBLPACM(0.05), datagen.DBLPScholar(0.05))
	c := DR{Seed: 5}
	zs, zt := c.represent(task)
	emb := embed.New(drEmbedDim, c.Seed)
	check := func(side string, got [][]float64, a, b *dataset.Database, pairs []dataset.Pair) {
		if len(got) != len(pairs) {
			t.Fatalf("%s: %d rows for %d pairs", side, len(got), len(pairs))
		}
		for i, p := range pairs {
			ra, rb := a.Records[p.A], b.Records[p.B]
			var want []float64
			for q := range ra.Values {
				want = append(want, emb.PairFeaturesOf(emb.Value(ra.Values[q]), emb.Value(rb.Values[q]))...)
			}
			if len(got[i]) != len(want) {
				t.Fatalf("%s row %d: %d features, want %d", side, i, len(got[i]), len(want))
			}
			for j := range want {
				if math.Float64bits(got[i][j]) != math.Float64bits(want[j]) {
					t.Fatalf("%s row %d feature %d: %v, fresh embedding gives %v", side, i, j, got[i][j], want[j])
				}
			}
		}
	}
	check("source", zs, task.SourceA, task.SourceB, task.SourcePairs)
	check("target", zt, task.TargetA, task.TargetB, task.TargetPairs)
}
