package blocking

import (
	"fmt"
	"math"
	"testing"
)

func TestKMVExactBelowK(t *testing.T) {
	s := NewKMV(64)
	for i := 0; i < 40; i++ {
		s.AddToken(fmt.Sprintf("tok-%d", i))
	}
	if got := s.Estimate(); got != 40 {
		t.Fatalf("below-k estimate = %v, want exactly 40", got)
	}
	// Duplicates must not move the estimate.
	for i := 0; i < 40; i++ {
		s.AddToken(fmt.Sprintf("tok-%d", i))
	}
	if got := s.Estimate(); got != 40 {
		t.Fatalf("estimate after duplicates = %v, want 40", got)
	}
}

func TestKMVEstimateWithinTolerance(t *testing.T) {
	for _, n := range []int{500, 5000, 50000} {
		s := NewKMV(256)
		for i := 0; i < n; i++ {
			s.AddToken(fmt.Sprintf("token-%d", i))
		}
		got := s.Estimate()
		if rel := math.Abs(got-float64(n)) / float64(n); rel > 0.25 {
			t.Errorf("n=%d: estimate %v off by %.0f%%", n, got, rel*100)
		}
	}
}

func TestKMVDeterministic(t *testing.T) {
	build := func() float64 {
		s := NewKMV(128)
		for i := 0; i < 10000; i++ {
			s.AddToken(fmt.Sprintf("t%d", i%3000))
		}
		return s.Estimate()
	}
	if a, b := build(), build(); a != b {
		t.Fatalf("same stream produced different estimates: %v vs %v", a, b)
	}
}
