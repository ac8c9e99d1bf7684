package transfer

import "testing"

// TestDTALSeedDeterminism: DTAL's adversarial training is stochastic,
// so it must be a pure function of its seed — same seed, same output.
func TestDTALSeedDeterminism(t *testing.T) {
	task, _ := blobTask(100, 50, 0.05, 41)
	m := DTAL{Epochs: 4, Seed: 9}
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

// TestDTALLearnsSeparableTask: on a cleanly separable problem with no
// shift, the default adversarial training budget must beat coin
// flipping by a wide margin.
func TestDTALLearnsSeparableTask(t *testing.T) {
	task, yt := blobTask(200, 100, 0, 42)
	res, err := DTAL{Seed: 1}.Run(task, factory())
	if err != nil {
		t.Fatalf("DTAL: %v", err)
	}
	if acc := accuracy(res.Labels, yt); acc < 0.8 {
		t.Fatalf("accuracy %v on separable blobs; want >= 0.8", acc)
	}
}
