package core

import (
	"testing"

	"transer/internal/ml/mltest"
)

func TestRunSemiSupervisedImproves(t *testing.T) {
	xs, ys, xt, yt := transferProblem(400, 400, 0.12, 0.3, 35)
	cfg := DefaultConfig()
	base, err := Run(xs, ys, xt, treeFactory(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Label 15% of the target with ground truth.
	known := TargetLabels{}
	for i := 0; i < len(xt); i += 7 {
		known[i] = yt[i]
	}
	semi, err := RunSemiSupervised(xs, ys, xt, known, treeFactory(), cfg)
	if err != nil {
		t.Fatalf("RunSemiSupervised: %v", err)
	}
	baseAcc := mltest.Accuracy(base.Proba, yt)
	semiAcc := mltest.Accuracy(semi.Proba, yt)
	if semiAcc < baseAcc-0.02 {
		t.Errorf("target labels hurt accuracy: %.3f -> %.3f", baseAcc, semiAcc)
	}
	// Known labels must be respected exactly.
	for idx, l := range known {
		if semi.Labels[idx] != l {
			t.Fatalf("known label at %d not respected", idx)
		}
	}
}

func TestRunSemiSupervisedValidation(t *testing.T) {
	xs, ys, xt, _ := transferProblem(50, 50, 0, 0, 36)
	if _, err := RunSemiSupervised(xs, ys, xt, TargetLabels{999: 1}, treeFactory(), DefaultConfig()); err == nil {
		t.Errorf("out-of-range index accepted")
	}
	if _, err := RunSemiSupervised(xs, ys, xt, TargetLabels{0: 7}, treeFactory(), DefaultConfig()); err == nil {
		t.Errorf("non-binary label accepted")
	}
	// Empty known labels degrade to the base run.
	res, err := RunSemiSupervised(xs, ys, xt, nil, treeFactory(), DefaultConfig())
	if err != nil || len(res.Labels) != len(xt) {
		t.Errorf("empty known labels should run the base algorithm: %v", err)
	}
}

func TestRunActive(t *testing.T) {
	xs, ys, xt, yt := transferProblem(400, 400, 0.1, 0.3, 37)
	oracle := func(i int) int { return yt[i] }
	budget := 40
	res, err := RunActive(xs, ys, xt, treeFactory(), DefaultConfig(), oracle, budget)
	if err != nil {
		t.Fatalf("RunActive: %v", err)
	}
	if len(res.Queried) == 0 || len(res.Queried) > budget {
		t.Fatalf("queried %d labels with budget %d", len(res.Queried), budget)
	}
	// No duplicate queries.
	seen := map[int]bool{}
	for _, q := range res.Queried {
		if seen[q] {
			t.Fatalf("index %d queried twice", q)
		}
		seen[q] = true
	}
	if acc := mltest.Accuracy(res.Proba, yt); acc < 0.85 {
		t.Errorf("active accuracy %.3f", acc)
	}
}

func TestRunActiveValidation(t *testing.T) {
	xs, ys, xt, _ := transferProblem(30, 30, 0, 0, 38)
	if _, err := RunActive(xs, ys, xt, treeFactory(), DefaultConfig(), nil, 5); err == nil {
		t.Errorf("nil oracle accepted")
	}
	if _, err := RunActive(xs, ys, xt, treeFactory(), DefaultConfig(), func(int) int { return 0 }, 0); err == nil {
		t.Errorf("zero budget accepted")
	}
}

func TestRunActiveBudgetExhaustsGracefully(t *testing.T) {
	// Budget larger than the target: every instance gets queried once.
	xs, ys, xt, yt := transferProblem(40, 20, 0.05, 0.2, 39)
	oracle := func(i int) int { return yt[i] }
	res, err := RunActive(xs, ys, xt, treeFactory(), DefaultConfig(), oracle, 100)
	if err != nil {
		t.Fatalf("RunActive: %v", err)
	}
	if len(res.Queried) > len(xt) {
		t.Errorf("queried %d > |target| %d", len(res.Queried), len(xt))
	}
	// With the full target labelled, predictions should be perfect on
	// the queried set.
	for _, q := range res.Queried {
		if res.Labels[q] != yt[q] {
			t.Fatalf("labelled instance %d predicted wrongly", q)
		}
	}
}
