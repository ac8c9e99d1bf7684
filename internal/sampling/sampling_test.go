package sampling

import (
	"testing"
	"testing/quick"
)

func makeImbalanced(nMatch, nNon int) ([][]float64, []int) {
	x := make([][]float64, 0, nMatch+nNon)
	y := make([]int, 0, nMatch+nNon)
	for i := 0; i < nMatch; i++ {
		x = append(x, []float64{1, float64(i)})
		y = append(y, 1)
	}
	for i := 0; i < nNon; i++ {
		x = append(x, []float64{0, float64(i)})
		y = append(y, 0)
	}
	return x, y
}

func counts(y []int) (m, n int) {
	for _, l := range y {
		if l == 1 {
			m++
		} else {
			n++
		}
	}
	return m, n
}

func TestUnderSampleRatio(t *testing.T) {
	x, y := makeImbalanced(50, 1000)
	bx, by := UnderSample(x, y, 3, 1)
	m, n := counts(by)
	if m != 50 {
		t.Errorf("matches dropped: %d", m)
	}
	if n != 150 {
		t.Errorf("non-matches = %d, want 150 (1:3)", n)
	}
	if len(bx) != len(by) {
		t.Errorf("x/y length mismatch")
	}
}

func TestUnderSampleAlreadyBalanced(t *testing.T) {
	x, y := makeImbalanced(50, 100)
	bx, by := UnderSample(x, y, 3, 1)
	if len(bx) != 150 || len(by) != 150 {
		t.Errorf("already-balanced data modified: %d rows", len(bx))
	}
}

func TestUnderSampleNoMatches(t *testing.T) {
	x, y := makeImbalanced(0, 100)
	bx, _ := UnderSample(x, y, 3, 1)
	if len(bx) != 100 {
		t.Errorf("no-match input should be returned unchanged, got %d", len(bx))
	}
}

func TestUnderSampleZeroRatio(t *testing.T) {
	x, y := makeImbalanced(10, 100)
	bx, _ := UnderSample(x, y, 0, 1)
	if len(bx) != 110 {
		t.Errorf("non-positive ratio should disable balancing")
	}
}

func TestUnderSampleDeterministic(t *testing.T) {
	x, y := makeImbalanced(20, 500)
	_, by1 := UnderSample(x, y, 2, 42)
	_, by2 := UnderSample(x, y, 2, 42)
	if len(by1) != len(by2) {
		t.Fatalf("sizes differ")
	}
	x1, _ := UnderSample(x, y, 2, 42)
	x2, _ := UnderSample(x, y, 2, 42)
	for i := range x1 {
		if x1[i][1] != x2[i][1] {
			t.Fatalf("selections differ at %d", i)
		}
	}
}

func TestStratifiedFractionKeepsBothClasses(t *testing.T) {
	x, y := makeImbalanced(4, 1000)
	fx, fy := StratifiedFraction(x, y, 0.1, 1)
	m, n := counts(fy)
	if m == 0 {
		t.Errorf("stratified fraction lost all matches")
	}
	if n == 0 {
		t.Errorf("stratified fraction lost all non-matches")
	}
	if len(fx) != m+n {
		t.Errorf("x/y inconsistent")
	}
	if m != 1 || n != 100 {
		t.Errorf("10%% of 4 matches and 1000 non-matches kept %d and %d, want 1 and 100", m, n)
	}
	if fx, _ := StratifiedFraction(x, y, 1.0, 1); len(fx) != len(x) {
		t.Errorf("full fraction kept %d of %d rows", len(fx), len(x))
	}
	if fx, _ := StratifiedFraction(x, y, 0, 1); fx != nil {
		t.Errorf("zero fraction should return nil")
	}
}

func TestPropertyUnderSampleInvariants(t *testing.T) {
	prop := func(nMatch, nNon uint8, ratio float64, seed int64) bool {
		if ratio < 0.1 {
			ratio = 0.1
		}
		if ratio > 10 {
			ratio = 10
		}
		x, y := makeImbalanced(int(nMatch)%60, int(nNon)%400)
		bx, by := UnderSample(x, y, ratio, seed)
		if len(bx) != len(by) {
			return false
		}
		m0, _ := counts(y)
		m1, n1 := counts(by)
		if m1 != m0 {
			return false // all matches preserved
		}
		if m1 > 0 && float64(n1) > float64(m1)*ratio+1 {
			return false // ratio respected
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Errorf("under-sampling invariant violated: %v", err)
	}
}
