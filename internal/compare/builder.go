package compare

import "transer/internal/strutil"

// Named comparator constructors for the full catalogue, complementing
// DefaultScheme's type-derived choices. Each returns a SimFunc for a
// Comparator of a custom scheme.

// JaroWinkler compares short name-like strings.
func JaroWinkler() SimFunc { return strutil.JaroWinkler }

// TokenJaccard compares multi-word text by word-token overlap.
func TokenJaccard() SimFunc { return strutil.JaccardTokens }

// QGramJaccard compares strings by character q-gram overlap.
func QGramJaccard(q int) SimFunc {
	return func(a, b string) float64 { return strutil.JaccardQGrams(a, b, q) }
}

// EditSimilarity is normalised Levenshtein similarity.
func EditSimilarity() SimFunc { return strutil.EditSim }

// DiceBigrams is the Sørensen-Dice coefficient over bigrams.
func DiceBigrams() SimFunc { return strutil.Dice }

// MongeElkanJW is the symmetric Monge-Elkan similarity with
// Jaro-Winkler as the inner comparator (multi-token names).
func MongeElkanJW() SimFunc { return strutil.SymMongeElkan }

// SmithWaterman is normalised local alignment similarity.
func SmithWaterman() SimFunc { return strutil.SmithWaterman }

// LongestCommonSubsequence is the normalised LCS similarity.
func LongestCommonSubsequence() SimFunc { return strutil.LCSeqSim }

// TokenOverlap is the overlap coefficient over word tokens
// (abbreviation-tolerant).
func TokenOverlap() SimFunc { return strutil.OverlapCoefficient }

// ExactMatch is case-folding exact equality.
func ExactMatch() SimFunc { return strutil.Exact }

// YearWindow compares integer years with a ± tolerance.
func YearWindow(maxDiff int) SimFunc {
	return func(a, b string) float64 { return yearWindow(a, b, maxDiff) }
}

// NumericTolerance compares numbers with a relative tolerance (e.g.
// 0.1 = 10% of the larger magnitude).
func NumericTolerance(rel float64) SimFunc {
	return func(a, b string) float64 { return numericTolerance(a, b, rel) }
}
