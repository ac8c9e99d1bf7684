// Package strutil provides approximate string comparison functions used
// in the record pair comparison step of entity resolution. All
// similarity functions return values in [0, 1] where 1 means identical
// and 0 means maximally different. The functions are the standard
// comparators from the record linkage literature (Christen, Data
// Matching, 2012): Jaro, Jaro-Winkler, Levenshtein (edit distance),
// token and q-gram Jaccard, Sørensen-Dice, Monge-Elkan, plus exact,
// numeric and year comparators, and phonetic encodings used for
// blocking keys.
package strutil

import (
	"math"
	"strings"
	"unicode"
)

// Jaro returns the Jaro similarity of two strings. It counts matching
// characters within a sliding window of half the longer string's length
// and penalises transpositions. Empty strings compare as 1 to each
// other and 0 to any non-empty string.
func Jaro(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := max(la, lb)/2 - 1
	if window < 0 {
		window = 0
	}
	matchedA := make([]bool, la)
	matchedB := make([]bool, lb)
	matches := 0
	for i := 0; i < la; i++ {
		lo := max(0, i-window)
		hi := min(lb-1, i+window)
		for j := lo; j <= hi; j++ {
			if !matchedB[j] && ra[i] == rb[j] {
				matchedA[i] = true
				matchedB[j] = true
				matches++
				break
			}
		}
	}
	if matches == 0 {
		return 0
	}
	// Count transpositions between the matched character sequences.
	transpositions := 0
	j := 0
	for i := 0; i < la; i++ {
		if !matchedA[i] {
			continue
		}
		for !matchedB[j] {
			j++
		}
		if ra[i] != rb[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	t := float64(transpositions) / 2
	return (m/float64(la) + m/float64(lb) + (m-t)/m) / 3
}

// JaroWinkler returns the Jaro-Winkler similarity, boosting the Jaro
// score for strings sharing a common prefix of up to four characters
// with the standard scaling factor p = 0.1. It is the comparator of
// choice for personal names (paper Section 5.1.1).
func JaroWinkler(a, b string) float64 {
	j := Jaro(a, b)
	if j == 0 {
		return 0
	}
	prefix := 0
	ra, rb := []rune(a), []rune(b)
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}

// Levenshtein returns the minimum number of single-character edits
// (insertions, deletions, substitutions) transforming a into b.
func Levenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	la, lb := len(ra), len(rb)
	if la == 0 {
		return lb
	}
	if lb == 0 {
		return la
	}
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		for j := 1; j <= lb; j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, min(cur[j-1]+1, prev[j-1]+cost))
		}
		prev, cur = cur, prev
	}
	return prev[lb]
}

// EditSim converts Levenshtein distance into a similarity in [0, 1] by
// normalising with the longer string's length.
func EditSim(a, b string) float64 {
	la, lb := len([]rune(a)), len([]rune(b))
	if la == 0 && lb == 0 {
		return 1
	}
	d := Levenshtein(a, b)
	return 1 - float64(d)/float64(max(la, lb))
}

// Tokens splits s into lower-cased word tokens on any non-alphanumeric
// boundary. It is the tokeniser behind token-based comparators and
// MinHash shingling of multi-word values.
func Tokens(s string) []string {
	return strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsNumber(r)
	})
}

// QGrams returns the padded character q-grams of s in lower case. The
// string is padded with q-1 leading and trailing '#' / '$' sentinel
// characters so that prefixes and suffixes are represented, following
// standard record linkage practice.
func QGrams(s string, q int) []string {
	if q <= 0 {
		return nil
	}
	ls := strings.ToLower(s)
	if ls == "" {
		return nil
	}
	padded := strings.Repeat("#", q-1) + ls + strings.Repeat("$", q-1)
	rs := []rune(padded)
	if len(rs) < q {
		return []string{string(rs)}
	}
	grams := make([]string, 0, len(rs)-q+1)
	for i := 0; i+q <= len(rs); i++ {
		grams = append(grams, string(rs[i:i+q]))
	}
	return grams
}

// JaccardTokens returns the Jaccard coefficient of the word-token sets
// of a and b. It is the comparator used for longer textual strings such
// as publication titles (paper Section 5.1.1).
func JaccardTokens(a, b string) float64 {
	return jaccard(Tokens(a), Tokens(b))
}

// JaccardQGrams returns the Jaccard coefficient of the q-gram sets of a
// and b; q = 2 (bigrams) is the common record linkage choice.
func JaccardQGrams(a, b string, q int) float64 {
	return jaccard(QGrams(a, q), QGrams(b, q))
}

func jaccard(sa, sb []string) float64 {
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	if len(sa) == 0 || len(sb) == 0 {
		return 0
	}
	set := make(map[string]bool, len(sa))
	for _, t := range sa {
		set[t] = true
	}
	inter := 0
	seen := make(map[string]bool, len(sb))
	for _, t := range sb {
		if seen[t] {
			continue
		}
		seen[t] = true
		if set[t] {
			inter++
		}
	}
	union := len(set) + len(seen) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// Dice returns the Sørensen-Dice coefficient over bigram sets:
// 2|A∩B| / (|A|+|B|).
func Dice(a, b string) float64 {
	sa, sb := QGrams(a, 2), QGrams(b, 2)
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	if len(sa) == 0 || len(sb) == 0 {
		return 0
	}
	set := make(map[string]int, len(sa))
	for _, t := range sa {
		set[t]++
	}
	inter := 0
	for _, t := range sb {
		if set[t] > 0 {
			set[t]--
			inter++
		}
	}
	return 2 * float64(inter) / float64(len(sa)+len(sb))
}

// MongeElkan returns the Monge-Elkan similarity: for each token of a it
// takes the best JaroWinkler match among the tokens of b and averages.
// Note the measure is asymmetric; SymMongeElkan symmetrises it.
func MongeElkan(a, b string) float64 {
	ta, tb := Tokens(a), Tokens(b)
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	total := 0.0
	for _, x := range ta {
		best := 0.0
		for _, y := range tb {
			if s := JaroWinkler(x, y); s > best {
				best = s
			}
		}
		total += best
	}
	return total / float64(len(ta))
}

// SymMongeElkan is the symmetrised Monge-Elkan similarity
// (mean of both directions).
func SymMongeElkan(a, b string) float64 {
	return (MongeElkan(a, b) + MongeElkan(b, a)) / 2
}

// Exact returns 1 if the strings are byte-identical after trimming
// surrounding space and lower-casing, 0 otherwise.
func Exact(a, b string) float64 {
	if strings.EqualFold(strings.TrimSpace(a), strings.TrimSpace(b)) {
		return 1
	}
	return 0
}

// NumericSim compares two numeric values with a maximum tolerated
// absolute difference maxDiff: identical values score 1, values whose
// difference reaches or exceeds maxDiff score 0, and the score decays
// linearly in between. A non-positive maxDiff degenerates to exact
// numeric equality.
func NumericSim(a, b, maxDiff float64) float64 {
	if math.IsNaN(a) || math.IsNaN(b) {
		return 0
	}
	d := math.Abs(a - b)
	if maxDiff <= 0 {
		if d == 0 {
			return 1
		}
		return 0
	}
	if d >= maxDiff {
		return 0
	}
	return 1 - d/maxDiff
}

// YearSim compares two integer years with a tolerance window of
// maxDiff years, the numeric comparator the paper applies to Year
// attributes.
func YearSim(a, b int, maxDiff int) float64 {
	return NumericSim(float64(a), float64(b), float64(maxDiff))
}
