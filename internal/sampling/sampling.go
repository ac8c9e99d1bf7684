// Package sampling provides seeded, deterministic sampling utilities
// for the TransER pipeline: class re-balancing by under-sampling (the
// GetBalancedData step of Algorithm 1), label-fraction subsetting for
// the Figure 6 experiment, and stratified splits for tests.
package sampling

import "transer/internal/seeded"

// UnderSample keeps all minority-class (match) rows and down-samples
// the majority class (non-match) so that the non-match : match ratio
// is at most ratio (the paper's b, default 3 for a 1:3 balance). If
// the data is already at least that balanced, it is returned
// unchanged. Row order within each class is preserved; the selection
// of retained majority rows is driven by seed.
func UnderSample(x [][]float64, y []int, ratio float64, seed int64) ([][]float64, []int) {
	if ratio <= 0 {
		return x, y
	}
	var matchIdx, nonIdx []int
	for i, l := range y {
		if l == 1 {
			matchIdx = append(matchIdx, i)
		} else {
			nonIdx = append(nonIdx, i)
		}
	}
	maxNon := int(float64(len(matchIdx)) * ratio)
	if len(nonIdx) <= maxNon || len(matchIdx) == 0 {
		return x, y
	}
	rng := seeded.New(seed)
	keep := rng.Perm(len(nonIdx))[:maxNon]
	keepSet := make(map[int]bool, maxNon)
	for _, k := range keep {
		keepSet[nonIdx[k]] = true
	}
	outX := make([][]float64, 0, len(matchIdx)+maxNon)
	outY := make([]int, 0, len(matchIdx)+maxNon)
	for i, l := range y {
		if l == 1 || keepSet[i] {
			outX = append(outX, x[i])
			outY = append(outY, l)
		}
	}
	return outX, outY
}

// StratifiedFraction returns a seeded random subset holding the given
// fraction of each class's rows, preserving original order. Each
// present class keeps at least one row, so both classes survive
// subsetting whenever both are present. frac ≥ 1 returns the input;
// frac ≤ 0 or empty input returns nil. It models partially labelled
// source domains (paper Section 5.2.3).
func StratifiedFraction(x [][]float64, y []int, frac float64, seed int64) ([][]float64, []int) {
	if frac >= 1 {
		return x, y
	}
	if frac <= 0 || len(x) == 0 {
		return nil, nil
	}
	rng := seeded.New(seed)
	keepSet := make(map[int]bool)
	for _, class := range []int{0, 1} {
		var idx []int
		for i, l := range y {
			if l == class {
				idx = append(idx, i)
			}
		}
		if len(idx) == 0 {
			continue
		}
		n := int(float64(len(idx)) * frac)
		if n < 1 {
			n = 1
		}
		for _, k := range rng.Perm(len(idx))[:n] {
			keepSet[idx[k]] = true
		}
	}
	outX := make([][]float64, 0, len(keepSet))
	outY := make([]int, 0, len(keepSet))
	for i := range x {
		if keepSet[i] {
			outX = append(outX, x[i])
			outY = append(outY, y[i])
		}
	}
	return outX, outY
}
