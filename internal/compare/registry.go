package compare

import (
	"fmt"
	"sort"
)

// The comparator name registry: every similarity function the package
// can assemble into a scheme, addressable by a stable lower-snake-case
// name. Query predicates (internal/query, cmd/query -sim) reference
// comparators by these names, so the mapping is part of the public
// query surface: names are append-only and never renamed.
//
// Parameterised comparators are registered at their catalogue defaults
// (qgram_jaccard with q=3, year with ±3, numeric with 10% relative
// tolerance) — the same values DefaultScheme uses.

// registry maps comparator names to constructors. Constructors rather
// than bare SimFuncs keep registration cheap and side-effect free.
var registry = map[string]func() SimFunc{
	"jaro_winkler":   JaroWinkler,
	"token_jaccard":  TokenJaccard,
	"qgram_jaccard":  func() SimFunc { return QGramJaccard(3) },
	"edit":           EditSimilarity,
	"dice":           DiceBigrams,
	"monge_elkan_jw": MongeElkanJW,
	"smith_waterman": SmithWaterman,
	"lcs":            LongestCommonSubsequence,
	"overlap":        TokenOverlap,
	"exact":          ExactMatch,
	"year":           func() SimFunc { return YearWindow(3) },
	"numeric":        func() SimFunc { return NumericTolerance(0.1) },
}

// ByName resolves a registered comparator name to its similarity
// function.
func ByName(name string) (SimFunc, error) {
	ctor, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("compare: unknown comparator %q (have %v)", name, RegistryNames())
	}
	return ctor(), nil
}

// RegistryNames returns every registered comparator name in sorted
// order.
func RegistryNames() []string {
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
