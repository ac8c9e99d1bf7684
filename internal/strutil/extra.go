package strutil

import "strings"

// This file holds additional comparators from the record linkage
// literature beyond the core set: local alignment (Smith-Waterman),
// longest common subsequence, and the overlap coefficient. They are available for custom comparison
// schemes.

// SmithWaterman returns the normalised local alignment similarity of a
// and b with match score 1, mismatch penalty -1, and gap penalty -0.5.
// The raw best alignment score is divided by the shorter string's
// length, yielding a similarity in [0, 1].
func SmithWaterman(a, b string) float64 {
	ra, rb := []rune(strings.ToLower(a)), []rune(strings.ToLower(b))
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	const (
		match    = 1.0
		mismatch = -1.0
		gap      = -0.5
	)
	prev := make([]float64, lb+1)
	cur := make([]float64, lb+1)
	best := 0.0
	for i := 1; i <= la; i++ {
		for j := 1; j <= lb; j++ {
			s := mismatch
			if ra[i-1] == rb[j-1] {
				s = match
			}
			v := prev[j-1] + s
			if g := prev[j] + gap; g > v {
				v = g
			}
			if g := cur[j-1] + gap; g > v {
				v = g
			}
			if v < 0 {
				v = 0
			}
			cur[j] = v
			if v > best {
				best = v
			}
		}
		prev, cur = cur, prev
		for j := range cur {
			cur[j] = 0
		}
	}
	short := la
	if lb < short {
		short = lb
	}
	sim := best / float64(short)
	if sim > 1 {
		sim = 1
	}
	return sim
}

// LongestCommonSubsequence returns the length of the longest (not
// necessarily contiguous) common subsequence of a and b.
func LongestCommonSubsequence(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	la, lb := len(ra), len(rb)
	if la == 0 || lb == 0 {
		return 0
	}
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for i := 1; i <= la; i++ {
		for j := 1; j <= lb; j++ {
			if ra[i-1] == rb[j-1] {
				cur[j] = prev[j-1] + 1
			} else if prev[j] >= cur[j-1] {
				cur[j] = prev[j]
			} else {
				cur[j] = cur[j-1]
			}
		}
		prev, cur = cur, prev
		for j := range cur {
			cur[j] = 0
		}
	}
	return prev[lb]
}

// LCSeqSim normalises LongestCommonSubsequence by the mean string
// length, the standard LCS similarity.
func LCSeqSim(a, b string) float64 {
	la, lb := len([]rune(a)), len([]rune(b))
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	return 2 * float64(LongestCommonSubsequence(a, b)) / float64(la+lb)
}

// OverlapCoefficient returns |A∩B| / min(|A|,|B|) over word token
// sets — 1 whenever one value's tokens are a subset of the other's,
// making it the comparator of choice for abbreviated vs full forms.
func OverlapCoefficient(a, b string) float64 {
	ta, tb := Tokens(a), Tokens(b)
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	set := make(map[string]bool, len(ta))
	for _, t := range ta {
		set[t] = true
	}
	seen := make(map[string]bool, len(tb))
	inter := 0
	for _, t := range tb {
		if seen[t] {
			continue
		}
		seen[t] = true
		if set[t] {
			inter++
		}
	}
	minSize := len(set)
	if len(seen) < minSize {
		minSize = len(seen)
	}
	return float64(inter) / float64(minSize)
}
