package transfer

import (
	"context"
	"math/rand"
	"testing"

	"transer/internal/linalg"

	"transer/internal/blocking"
	"transer/internal/compare"
	"transer/internal/datagen"
	"transer/internal/dataset"
	"transer/internal/ml"
	"transer/internal/ml/mltest"
	"transer/internal/ml/tree"
	"transer/internal/query"
)

// blobTask builds a feature-space-only Task from shifted blobs.
func blobTask(nS, nT int, shift float64, seed int64) (*Task, []int) {
	rng := rand.New(rand.NewSource(seed))
	gen := func(n int, offset float64) ([][]float64, []int) {
		x := make([][]float64, n)
		y := make([]int, n)
		for i := range x {
			label := i % 2
			centre := 0.2
			if label == 1 {
				centre = 0.8
			}
			row := make([]float64, 4)
			for j := range row {
				v := centre + offset + rng.NormFloat64()*0.08
				if v < 0 {
					v = 0
				} else if v > 1 {
					v = 1
				}
				row[j] = v
			}
			x[i] = row
			y[i] = label
		}
		return x, y
	}
	xs, ys := gen(nS, 0)
	xt, yt := gen(nT, shift)
	return &Task{XS: xs, YS: ys, XT: xt}, yt
}

// domainTask builds a full Task (with raw databases) from two
// generated domain pairs, as the experiment harness does.
func domainTask(src, tgt datagen.DomainPair) (*Task, []int) {
	schemeS := compare.DefaultScheme(src.A.Schema)
	schemeT := compare.DefaultScheme(tgt.A.Schema)
	sp := blocking.CandidatePairs(src.A, src.B, blocking.MinHashConfig{Seed: 1})
	tp := blocking.CandidatePairs(tgt.A, tgt.B, blocking.MinHashConfig{Seed: 1})
	xs, _ := query.CompareMatrix(context.Background(), src.A, src.B, schemeS, sp, 0)
	xt, _ := query.CompareMatrix(context.Background(), tgt.A, tgt.B, schemeT, tp, 0)
	ys := dataset.LabelPairs(sp, src.Truth())
	yt := dataset.LabelPairs(tp, tgt.Truth())
	return &Task{
		XS: xs, YS: ys, XT: xt,
		SourceA: src.A, SourceB: src.B, TargetA: tgt.A, TargetB: tgt.B,
		SourcePairs: sp, TargetPairs: tp,
	}, yt
}

func factory() ml.Factory { return tree.Factory(tree.Config{Seed: 1}) }

func TestTaskValidate(t *testing.T) {
	task, _ := blobTask(50, 40, 0, 1)
	if err := task.Validate(); err != nil {
		t.Fatalf("valid task rejected: %v", err)
	}
	bad := &Task{}
	if err := bad.Validate(); err == nil {
		t.Errorf("empty task accepted")
	}
	bad = &Task{XS: task.XS, YS: task.YS[:1], XT: task.XT}
	if err := bad.Validate(); err == nil {
		t.Errorf("label mismatch accepted")
	}
	bad = &Task{XS: task.XS, YS: task.YS, XT: [][]float64{{1}}}
	if err := bad.Validate(); err == nil {
		t.Errorf("dimension mismatch accepted")
	}
}

func TestNaive(t *testing.T) {
	task, yt := blobTask(300, 200, 0.05, 2)
	res, err := Naive{}.Run(task, factory())
	if err != nil {
		t.Fatalf("Naive: %v", err)
	}
	if len(res.Labels) != len(task.XT) {
		t.Fatalf("output size %d", len(res.Labels))
	}
	if acc := mltest.Accuracy(res.Proba, yt); acc < 0.9 {
		t.Errorf("naive accuracy %.3f under small shift", acc)
	}
}

func TestCoral(t *testing.T) {
	task, yt := blobTask(300, 200, 0.1, 3)
	res, err := Coral{}.Run(task, factory())
	if err != nil {
		t.Fatalf("Coral: %v", err)
	}
	if acc := mltest.Accuracy(res.Proba, yt); acc < 0.8 {
		t.Errorf("coral accuracy %.3f", acc)
	}
}

func TestTCA(t *testing.T) {
	task, yt := blobTask(200, 150, 0.08, 4)
	res, err := TCA{MaxLandmarks: 80, Seed: 4}.Run(task, factory())
	if err != nil {
		t.Fatalf("TCA: %v", err)
	}
	if len(res.Labels) != len(task.XT) {
		t.Fatalf("output size %d", len(res.Labels))
	}
	// TCA on clean well-separated blobs should still classify decently.
	if acc := mltest.Accuracy(res.Proba, yt); acc < 0.7 {
		t.Errorf("TCA accuracy %.3f", acc)
	}
}

func TestLocIT(t *testing.T) {
	task, _ := blobTask(300, 250, 0.05, 5)
	res, err := LocIT{Seed: 5}.Run(task, factory())
	if err != nil {
		t.Fatalf("LocIT: %v", err)
	}
	if len(res.Labels) != len(task.XT) {
		t.Fatalf("output size %d", len(res.Labels))
	}
}

func TestDTAL(t *testing.T) {
	task, yt := blobTask(300, 200, 0.08, 6)
	res, err := DTAL{Epochs: 30, Seed: 6}.Run(task, factory())
	if err != nil {
		t.Fatalf("DTAL: %v", err)
	}
	if acc := mltest.Accuracy(res.Proba, yt); acc < 0.8 {
		t.Errorf("DTAL accuracy %.3f on easy blobs", acc)
	}
}

func TestDRRequiresRawData(t *testing.T) {
	task, _ := blobTask(50, 40, 0, 7)
	if _, err := (DR{}).Run(task, factory()); err == nil {
		t.Errorf("DR without raw databases accepted")
	}
}

func TestDROnDomainTask(t *testing.T) {
	task, _ := domainTask(datagen.DBLPACM(0.06), datagen.DBLPScholar(0.06))
	res, err := DR{Seed: 8}.Run(task, factory())
	if err != nil {
		t.Fatalf("DR: %v", err)
	}
	if len(res.Labels) != len(task.XT) {
		t.Fatalf("output size %d", len(res.Labels))
	}
}

func TestTransERMethod(t *testing.T) {
	task, yt := blobTask(400, 300, 0.08, 9)
	res, err := TransER{}.Run(task, factory())
	if err != nil {
		t.Fatalf("TransER: %v", err)
	}
	if acc := mltest.Accuracy(res.Proba, yt); acc < 0.9 {
		t.Errorf("TransER accuracy %.3f", acc)
	}
}

func TestAllMethodsOnRealisticTask(t *testing.T) {
	if testing.Short() {
		t.Skip("full method sweep in -short mode")
	}
	task, yt := domainTask(datagen.DBLPACM(0.08), datagen.DBLPScholar(0.08))
	methods := []Method{
		TransER{}, Naive{}, Coral{},
		TCA{MaxLandmarks: 100, Seed: 1},
		LocIT{Seed: 1}, DR{Seed: 1},
		DTAL{Epochs: 15, Seed: 1},
	}
	for _, m := range methods {
		res, err := m.Run(task, factory())
		if err != nil {
			t.Errorf("%s failed: %v", m.Name(), err)
			continue
		}
		if len(res.Labels) != len(task.XT) || len(res.Proba) != len(task.XT) {
			t.Errorf("%s produced wrong output size", m.Name())
		}
		acc := mltest.Accuracy(res.Proba, yt)
		t.Logf("%-8s accuracy %.3f", m.Name(), acc)
	}
}

func TestMethodNames(t *testing.T) {
	names := map[string]Method{
		"TransER": TransER{}, "Naive": Naive{}, "Coral": Coral{},
		"TCA": TCA{}, "LocIT*": LocIT{}, "DR": DR{}, "DTAL*": DTAL{},
	}
	for want, m := range names {
		if m.Name() != want {
			t.Errorf("Name() = %q, want %q", m.Name(), want)
		}
	}
}

func TestCoralAlignsCovariance(t *testing.T) {
	// After CORAL's alignment the transformed source covariance should
	// be closer to the target covariance than the raw source was.
	task, _ := blobTask(400, 400, 0.15, 20)
	// Stretch the source along one axis to create a covariance gap.
	for _, row := range task.XS {
		row[0] = 0.5 + (row[0]-0.5)*1.8
		if row[0] < 0 {
			row[0] = 0
		} else if row[0] > 1 {
			row[0] = 1
		}
	}
	covGap := func(x [][]float64) float64 {
		cs := linalg.Covariance(linalg.FromRows(x), 0)
		ct := linalg.Covariance(linalg.FromRows(task.XT), 0)
		return cs.Sub(ct).FrobeniusNorm()
	}
	before := covGap(task.XS)

	ridge := 1.0
	xs := linalg.FromRows(task.XS)
	covS := linalg.Covariance(xs, ridge)
	covT := linalg.Covariance(linalg.FromRows(task.XT), ridge)
	align := linalg.SymPow(covS, -0.5, 1e-9).Mul(linalg.SymPow(covT, 0.5, 1e-9))
	alignedRows := xs.Mul(align)
	aligned := make([][]float64, alignedRows.Rows)
	for i := range aligned {
		aligned[i] = alignedRows.Row(i)
	}
	after := covGap(aligned)
	if after >= before {
		t.Errorf("CORAL alignment did not reduce covariance gap: %.4f -> %.4f", before, after)
	}
}

func TestTCADeterministicWithSeed(t *testing.T) {
	task, _ := blobTask(150, 120, 0.05, 21)
	run := func() []float64 {
		res, err := TCA{MaxLandmarks: 60, Seed: 5}.Run(task, factory())
		if err != nil {
			t.Fatal(err)
		}
		return res.Proba
	}
	p1, p2 := run(), run()
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("TCA not deterministic at %d", i)
		}
	}
}

func TestDTALIgnoresFactory(t *testing.T) {
	task, _ := blobTask(120, 100, 0.05, 22)
	res, err := DTAL{Epochs: 10, Seed: 3}.Run(task, nil)
	if err != nil {
		t.Fatalf("DTAL should not need a classifier factory: %v", err)
	}
	if len(res.Labels) != len(task.XT) {
		t.Errorf("wrong output size")
	}
}

func TestResampleWeighted(t *testing.T) {
	x := [][]float64{{0}, {1}, {2}}
	y := []int{0, 1, 0}
	// All weight on row 1.
	rx, ry := resampleWeightedN(x, y, []float64{0, 1, 0}, 1, len(x))
	for i := range rx {
		if rx[i][0] != 1 || ry[i] != 1 {
			t.Fatalf("weighted resampling ignored weights: %v %v", rx[i], ry[i])
		}
	}
	// Zero weights fall back to the original data.
	rx, _ = resampleWeightedN(x, y, []float64{0, 0, 0}, 1, len(x))
	if len(rx) != 3 || rx[2][0] != 2 {
		t.Errorf("zero-weight fallback broken")
	}
}
