package forest

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"testing"

	"transer/internal/ml"
	"transer/internal/ml/mltest"
	"transer/internal/ml/tree"
)

func TestForestSeparable(t *testing.T) {
	x, y := mltest.TwoBlobs(300, 4, 0.15, 1)
	f := New(Config{Seed: 1})
	if err := f.Fit(x, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if acc := mltest.Accuracy(f.PredictProba(x), y); acc < 0.95 {
		t.Errorf("training accuracy %.3f", acc)
	}
}

func TestForestXORGeneralisation(t *testing.T) {
	xTrain, yTrain := mltest.XOR(400, 0.08, 2)
	xTest, yTest := mltest.XOR(200, 0.08, 3)
	f := New(Config{Seed: 2})
	if err := f.Fit(xTrain, yTrain); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if acc := mltest.Accuracy(f.PredictProba(xTest), yTest); acc < 0.9 {
		t.Errorf("XOR test accuracy %.3f", acc)
	}
}

func TestForestDeterministicWithSeed(t *testing.T) {
	x, y := mltest.TwoBlobs(200, 4, 0.2, 4)
	f1 := New(Config{Seed: 9})
	f2 := New(Config{Seed: 9})
	if err := f1.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if err := f2.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	p1 := f1.PredictProba(x)
	p2 := f2.PredictProba(x)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("same seed produced different predictions at %d: %v vs %v", i, p1[i], p2[i])
		}
	}
}

func TestForestErrors(t *testing.T) {
	f := New(Config{})
	if err := f.Fit(nil, nil); !errors.Is(err, ml.ErrNoTrainingData) {
		t.Errorf("empty fit error = %v", err)
	}
	if err := f.Fit([][]float64{{1}, {2}}, []int{0, 0}); !errors.Is(err, ml.ErrSingleClass) {
		t.Errorf("single class error = %v", err)
	}
}

func TestForestUntrained(t *testing.T) {
	f := New(Config{})
	p := f.PredictProba([][]float64{{0.1}})
	if p[0] != 0.5 {
		t.Errorf("untrained forest should predict 0.5, got %v", p[0])
	}
}

func TestForestProbabilityAveraging(t *testing.T) {
	x, y := mltest.TwoBlobs(200, 4, 0.15, 5)
	f := New(Config{Seed: 6})
	if err := f.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	for _, p := range f.PredictProba(x) {
		if p < 0 || p > 1 {
			t.Fatalf("probability %v out of range", p)
		}
	}
}

// TestForestMatchesOracle: trees that share one tree.Encoding and one
// bootstrap buffer export the same Params, byte for byte, as trees each
// fitted on an Encoding and a bag of their own, drawn from the same
// seed stream, so no tree's fit leaves state behind for the next.
func TestForestMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		x, y := benchData(60+40*int(seed), 3*int(seed), seed%2 == 0, seed)
		f := New(Config{Seed: seed})
		if err := f.Fit(x, y); err != nil {
			t.Fatalf("seed %d: Fit: %v", seed, err)
		}
		got, err := f.Params()
		if err != nil {
			t.Fatalf("seed %d: Params: %v", seed, err)
		}
		maxFeat := max(1, int(math.Round(math.Sqrt(float64(len(x[0]))))))
		rng := rand.New(rand.NewSource(seed))
		var want Params
		for k := 0; k < numTrees; k++ {
			idx := make([]int, len(x))
			for i := range idx {
				idx[i] = rng.Intn(len(x))
			}
			tr := tree.New(tree.Config{MaxFeatures: maxFeat, Seed: rng.Int63()})
			if err := tr.FitBootstrap(tree.Encode(x), y, idx); err != nil {
				t.Fatalf("seed %d tree %d: FitBootstrap: %v", seed, k, err)
			}
			b, err := tr.Params()
			if err != nil {
				t.Fatalf("seed %d tree %d: Params: %v", seed, k, err)
			}
			want.Trees = append(want.Trees, b)
		}
		wantB, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantB) {
			t.Fatalf("seed %d: forest Params differ from trees fitted apart", seed)
		}
	}
}

// benchData draws n rows of dim features whose labels follow the mean
// of the first three features plus noise, so trees grow deep as they do
// on record pairs. grid puts every value on the 0.05 grid of the compare
// features; otherwise values are continuous, like DR's embeddings.
func benchData(n, dim int, grid bool, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		x[i] = make([]float64, dim)
		for f := range x[i] {
			if grid {
				x[i][f] = float64(rng.Intn(21)) * 0.05
			} else {
				x[i][f] = rng.NormFloat64()
			}
		}
		if (x[i][0]+x[i][1]+x[i][2])/3+0.3*rng.NormFloat64() > 0.5 {
			y[i] = 1
		}
	}
	return x, y
}

// BenchmarkForestFit fits forests of the two shapes the Table 2 grid
// fits at scale 0.05: the similarity-vector compare features and DR's
// embedding features.
func BenchmarkForestFit(b *testing.B) {
	for _, c := range []struct {
		name   string
		n, dim int
		grid   bool
	}{
		{"compare_365x11", 365, 11, true},
		{"embed_433x99", 433, 99, false},
	} {
		x, y := benchData(c.n, c.dim, c.grid, 7)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f := New(Config{Seed: int64(i)})
				if err := f.Fit(x, y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestForestParamsRoundTrip(t *testing.T) {
	mltest.CheckParamRoundTrip(t, func() ml.ParamClassifier { return New(Config{Seed: 3}) }, 7)
}
