package transfer

import "testing"

// accuracy computes the label agreement fraction against a truth
// vector.
func accuracy(labels, truth []int) float64 {
	hits := 0
	for i := range labels {
		if labels[i] == truth[i] {
			hits++
		}
	}
	return float64(hits) / float64(len(labels))
}

// TestCoralIdenticalDomainsNearIdentity: when source and target share
// a distribution the alignment is near-identity, so CORAL must still
// solve the easy blob problem.
func TestCoralIdenticalDomainsNearIdentity(t *testing.T) {
	task, yt := blobTask(160, 80, 0, 22)
	res, err := Coral{}.Run(task, factory())
	if err != nil {
		t.Fatalf("Coral: %v", err)
	}
	if acc := accuracy(res.Labels, yt); acc < 0.9 {
		t.Fatalf("accuracy %v on identical domains; near-identity alignment expected >= 0.9", acc)
	}
}
