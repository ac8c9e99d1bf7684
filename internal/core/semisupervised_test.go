package core

import (
	"fmt"
	"math"
	"testing"

	"transer/internal/datagen"
	"transer/internal/ml"
	"transer/internal/ml/forest"
	"transer/internal/obs"
	"transer/internal/pipeline"
	"transer/internal/sampling"
)

// twoPassSemiSupervised is the earlier RunSemiSupervised, kept as the
// oracle for the one-pass Prepare/fit path: a full Run (SEL, GEN and
// TCL), then a second TCL trained on the run's confident pseudo labels
// with the known labels winning conflicts.
func twoPassSemiSupervised(xs [][]float64, ys []int, xt [][]float64, known TargetLabels, factory ml.Factory, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	base, err := Run(xs, ys, xt, factory, cfg)
	if err != nil {
		return nil, err
	}
	if len(known) == 0 || cfg.DisableGENTCL {
		return base, nil
	}
	var xv [][]float64
	var yv []int
	for i := range xt {
		if l, ok := known[i]; ok {
			xv = append(xv, xt[i])
			yv = append(yv, l)
			continue
		}
		if base.PseudoConfidence[i] >= cfg.TP {
			xv = append(xv, xt[i])
			yv = append(yv, base.PseudoLabels[i])
		}
	}
	if len(xv) == 0 || allSame(yv) {
		return base, nil
	}
	xvb, yvb := sampling.UnderSample(xv, yv, cfg.B, cfg.Seed)
	cv, err := ml.FitWithFallback(factory, xvb, yvb)
	if err != nil {
		return nil, err
	}
	out := *base
	out.Proba = cv.PredictProba(xt)
	out.Labels = ml.Labels(out.Proba, 0.5)
	out.Stats.HighConfidence = len(xv)
	out.Stats.BalancedTrain = len(xvb)
	for idx, l := range known {
		out.Labels[idx] = l
		out.Proba[idx] = float64(l)
	}
	return &out, nil
}

// everyNth labels every n-th target instance with its truth.
func everyNth(yt []int, n int) TargetLabels {
	known := TargetLabels{}
	for i := 0; i < len(yt); i += n {
		known[i] = yt[i]
	}
	return known
}

// requireSameResult fails unless got and want agree bitwise on every
// prediction and pseudo-label output and on the TCL set sizes.
func requireSameResult(t *testing.T, got, want *Result) {
	t.Helper()
	if len(got.Proba) != len(want.Proba) {
		t.Fatalf("%d probabilities, want %d", len(got.Proba), len(want.Proba))
	}
	for i := range want.Proba {
		if math.Float64bits(got.Proba[i]) != math.Float64bits(want.Proba[i]) ||
			got.Labels[i] != want.Labels[i] ||
			got.PseudoLabels[i] != want.PseudoLabels[i] ||
			math.Float64bits(got.PseudoConfidence[i]) != math.Float64bits(want.PseudoConfidence[i]) {
			t.Fatalf("row %d: got (%d, %v, %d, %v), want (%d, %v, %d, %v)", i,
				got.Labels[i], got.Proba[i], got.PseudoLabels[i], got.PseudoConfidence[i],
				want.Labels[i], want.Proba[i], want.PseudoLabels[i], want.PseudoConfidence[i])
		}
	}
	if got.Stats.HighConfidence != want.Stats.HighConfidence || got.Stats.BalancedTrain != want.Stats.BalancedTrain {
		t.Fatalf("TCL set sizes (%d, %d), want (%d, %d)", got.Stats.HighConfidence, got.Stats.BalancedTrain,
			want.Stats.HighConfidence, want.Stats.BalancedTrain)
	}
}

// TestRunSemiSupervisedMatchesTwoPass: the one-pass path is bitwise
// equal to the two-pass oracle on synthetic problems and on the
// msd-legacy → MSD transfer of examples/multisource at its scales 1
// and 0.1 (target MSD at 0.2 and 0.02).
func TestRunSemiSupervisedMatchesTwoPass(t *testing.T) {
	type problem struct {
		name       string
		xs, xt     [][]float64
		ys         []int
		known      TargetLabels
		newFactory func() ml.Factory
	}
	var problems []problem
	for _, c := range []struct {
		nS, nT      int
		shift, conf float64
		seed        int64
		every       int
	}{
		{400, 400, 0.12, 0.3, 35, 7},
		{400, 400, 0.1, 0.3, 37, 10},
		{300, 200, 0.05, 0.2, 40, 3},
		{50, 50, 0, 0, 36, 0},
	} {
		xs, ys, xt, yt := transferProblem(c.nS, c.nT, c.shift, c.conf, c.seed)
		var known TargetLabels
		if c.every > 0 {
			known = everyNth(yt, c.every)
		}
		problems = append(problems, problem{fmt.Sprintf("synthetic/seed=%d", c.seed), xs, xt, ys, known, treeFactory})
	}
	for _, scale := range []float64{1, 0.1} {
		legacy := int(400 * scale)
		if legacy < 40 {
			legacy = 40
		}
		a, b := datagen.Generate(datagen.Spec{
			Name: "msd-legacy", Kind: datagen.Music, Seed: 777,
			NumEntities: legacy, FracA: 0.8, FracB: 0.8, AmbiguityFrac: 0.05,
		})
		src := pipeline.BuildPair(datagen.DomainPair{Name: "msd-legacy", A: a, B: b}, 1)
		tgt := pipeline.BuildPair(datagen.MSD(0.2*scale), 1)
		problems = append(problems, problem{fmt.Sprintf("msd-legacy->MSD@%.2f", 0.2*scale), src.X, tgt.X, src.Y,
			everyNth(tgt.Y, 20), func() ml.Factory { return forest.Factory(forest.Config{Seed: 1}) }})
	}
	for _, p := range problems {
		t.Run(p.name, func(t *testing.T) {
			want, err := twoPassSemiSupervised(p.xs, p.ys, p.xt, p.known, p.newFactory(), DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunSemiSupervised(p.xs, p.ys, p.xt, p.known, p.newFactory(), DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, got, want)
		})
	}
}

// flipped inverts every known label, so that where a result follows
// the known labels, rather than the truth GEN mostly recovers, shows.
func flipped(known TargetLabels) TargetLabels {
	for i, l := range known {
		known[i] = 1 - l
	}
	return known
}

// TestRunSemiSupervisedDegenerateTCL pins the cases where known labels
// now always reach the answer: with DisableGENTCL, and when the
// known-label TCL set is single-class or balances to under 20 rows,
// the result is GEN's prediction with the known labels on their rows.
func TestRunSemiSupervisedDegenerateTCL(t *testing.T) {
	check := func(t *testing.T, res *Result, known TargetLabels, wantFallback bool) {
		t.Helper()
		for i, l := range res.Labels {
			want, ok := known[i]
			if !ok {
				want = res.PseudoLabels[i]
			}
			if l != want {
				t.Fatalf("row %d: label %d, want %d", i, l, want)
			}
		}
		if res.Stats.TCLFallback != wantFallback {
			t.Fatalf("TCLFallback = %v, want %v", res.Stats.TCLFallback, wantFallback)
		}
	}
	xs, ys, xt, yt := transferProblem(300, 300, 0.05, 0.2, 41)

	t.Run("DisableGENTCL", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.DisableGENTCL = true
		known := flipped(everyNth(yt, 5))
		res, err := RunSemiSupervised(xs, ys, xt, known, treeFactory(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		check(t, res, known, false)
	})
	t.Run("single-class", func(t *testing.T) {
		known := TargetLabels{}
		for i := range xt {
			known[i] = 0
		}
		res, err := RunSemiSupervised(xs, ys, xt, known, treeFactory(), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		check(t, res, known, true)
	})
	t.Run("under-20-rows", func(t *testing.T) {
		xs, ys, xt, yt := transferProblem(300, 16, 0.05, 0.2, 42)
		known := flipped(everyNth(yt, 2))
		res, err := RunSemiSupervised(xs, ys, xt, known, treeFactory(), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		check(t, res, known, true)
	})
}

// TestRunActiveQueriesLeastConfident: RunActive runs SEL once, sends
// the budget least-confident rows to the oracle in (confidence, index)
// order, and answers exactly as RunSemiSupervised with those labels.
func TestRunActiveQueriesLeastConfident(t *testing.T) {
	xs, ys, xt, yt := transferProblem(400, 400, 0.1, 0.3, 43)
	var asked []int
	oracle := func(i int) int {
		asked = append(asked, i)
		return yt[i]
	}
	tr := obs.New("active")
	cfg := DefaultConfig()
	cfg.Obs = tr.Root()
	const budget = 30
	res, err := RunActive(xs, ys, xt, treeFactory(), cfg, oracle, budget)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Queried) != budget || fmt.Sprint(asked) != fmt.Sprint(res.Queried) {
		t.Fatalf("queried %v, oracle asked %v", res.Queried, asked)
	}
	queried := map[int]bool{}
	for k, q := range res.Queried {
		queried[q] = true
		if k == 0 {
			continue
		}
		prev, z := res.Queried[k-1], res.PseudoConfidence
		if z[prev] > z[q] || (z[prev] == z[q] && prev > q) {
			t.Fatalf("query %d (row %d, z=%v) out of order after row %d (z=%v)", k, q, z[q], prev, z[prev])
		}
	}
	last := res.PseudoConfidence[res.Queried[budget-1]]
	for i, z := range res.PseudoConfidence {
		if !queried[i] && z < last {
			t.Fatalf("row %d (z=%v) is less confident than the last query (z=%v) but was not asked", i, z, last)
		}
	}
	sels := 0
	for _, c := range tr.Root().Children() {
		if c.Name() == "sel" {
			sels++
		}
	}
	if sels != 1 {
		t.Fatalf("%d sel spans, want 1", sels)
	}

	known := TargetLabels{}
	for _, q := range res.Queried {
		known[q] = yt[q]
	}
	semi, err := RunSemiSupervised(xs, ys, xt, known, treeFactory(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, res.Result, semi)
}
