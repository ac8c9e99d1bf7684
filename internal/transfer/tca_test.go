package transfer

import (
	"strings"
	"testing"
)

// TestTCADegenerateLandmarkSplit: a landmark budget too small to cover
// both domains must be rejected with the documented error instead of
// silently solving a one-sided eigenproblem.
func TestTCADegenerateLandmarkSplit(t *testing.T) {
	task, _ := blobTask(40, 20, 0, 31)
	_, err := TCA{MaxLandmarks: 1}.Run(task, factory())
	if err == nil || !strings.Contains(err.Error(), "degenerate landmark split") {
		t.Fatalf("MaxLandmarks=1 returned %v, want a degenerate landmark split error", err)
	}
}

// TestTCALandmarkCapStillSolves: a landmark budget far below the data
// size must still produce a full, valid result — the Nyström subsample
// is a scalability device, not a correctness trade.
func TestTCALandmarkCapStillSolves(t *testing.T) {
	task, yt := blobTask(200, 100, 0.05, 32)
	res, err := TCA{MaxLandmarks: 16, Seed: 1}.Run(task, factory())
	if err != nil {
		t.Fatalf("TCA with 16 landmarks: %v", err)
	}
	if len(res.Labels) != len(task.XT) {
		t.Fatalf("%d labels for %d target rows", len(res.Labels), len(task.XT))
	}
	if acc := accuracy(res.Labels, yt); acc < 0.8 {
		t.Fatalf("accuracy %v with 16 landmarks on easy blobs; want >= 0.8", acc)
	}
}

// TestTCAComponentsCappedByDim: on four features TCA wants four
// components, but two landmarks make a 2×2 eigenproblem with only two;
// the component count must be clamped to the landmark count, without a
// panic and with full output sizes.
func TestTCAComponentsCappedByDim(t *testing.T) {
	task, _ := blobTask(60, 30, 0, 33)
	if m := task.Dim(); m < 4 {
		t.Fatalf("task has %d features; the clamp needs at least 4", m)
	}
	res, err := TCA{MaxLandmarks: 2, Seed: 1}.Run(task, factory())
	if err != nil {
		t.Fatalf("TCA with two landmarks: %v", err)
	}
	if len(res.Labels) != len(task.XT) || len(res.Proba) != len(task.XT) {
		t.Fatalf("output sizes %d/%d for %d target rows", len(res.Labels), len(res.Proba), len(task.XT))
	}
}
