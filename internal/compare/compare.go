// Package compare implements the record pair comparison step: for each
// candidate pair it computes an m-dimensional feature vector of
// attribute similarities in [0, 1], and for a full candidate set the
// n×m feature matrix X used by all classification and transfer
// methods (paper Section 3).
package compare

import (
	"fmt"
	"math"
	"strconv"

	"transer/internal/dataset"
	"transer/internal/strutil"
)

// SimFunc compares two attribute values into a similarity in [0, 1].
type SimFunc func(a, b string) float64

// Comparator binds an attribute index to a similarity function.
type Comparator struct {
	Attr int
	Name string
	Sim  SimFunc
}

// MissingPolicy controls the feature value when one or both attribute
// values are empty.
type MissingPolicy int

const (
	// MissingZero scores pairs with any missing value as 0 — the
	// conservative default.
	MissingZero MissingPolicy = iota
	// MissingHalf scores such pairs 0.5 (agnostic).
	MissingHalf
)

// Scheme is a full comparison schema: one comparator per feature, plus
// the missing-value and quantisation settings. It holds no execution
// settings; query.CompareMatrix applies it to a candidate set over a
// caller-chosen worker pool.
type Scheme struct {
	Comparators []Comparator
	Missing     MissingPolicy
	// Quantize rounds every feature to the nearest multiple of this
	// step (0 disables). Real linkage feature matrices contain heavily
	// repeated vectors (the paper's Table 1 counts tens of thousands of
	// duplicate vectors after rounding to two decimals); quantisation
	// reproduces that discreteness, which the local-neighbourhood
	// machinery of instance selection methods depends on.
	Quantize float64
}

// NumFeatures returns the feature space dimensionality m.
func (s Scheme) NumFeatures() int { return len(s.Comparators) }

// FeatureNames returns the comparator names in feature order.
func (s Scheme) FeatureNames() []string {
	out := make([]string, len(s.Comparators))
	for i, c := range s.Comparators {
		out[i] = c.Name
	}
	return out
}

// DefaultScheme derives the paper's comparator assignment from a
// schema: Jaro-Winkler for name attributes, token Jaccard for text,
// normalised edit distance for codes, tolerance windows for years
// (±3) and numerics (relative), one feature per attribute.
func DefaultScheme(sch dataset.Schema) Scheme {
	s := Scheme{Quantize: 0.05}
	for i, a := range sch.Attributes {
		c := Comparator{Attr: i, Name: a.Name}
		switch a.Type {
		case dataset.AttrName:
			c.Sim = strutil.JaroWinkler
			c.Name += "_jw"
		case dataset.AttrText:
			c.Sim = jaccardOrDice
			c.Name += "_jac"
		case dataset.AttrCode:
			c.Sim = strutil.EditSim
			c.Name += "_edit"
		case dataset.AttrYear:
			c.Sim = yearSim3
			c.Name += "_yr"
		case dataset.AttrNumeric:
			c.Sim = relNumericSim
			c.Name += "_num"
		default:
			panic(fmt.Sprintf("compare: unhandled attribute type %v", a.Type))
		}
		s.Comparators = append(s.Comparators, c)
	}
	return s
}

// jaccardOrDice uses token Jaccard for multi-token values and falls
// back to bigram Dice for single tokens, where token Jaccard is too
// brittle against typos.
func jaccardOrDice(a, b string) float64 {
	if len(strutil.Tokens(a)) > 1 || len(strutil.Tokens(b)) > 1 {
		return strutil.JaccardTokens(a, b)
	}
	return strutil.Dice(a, b)
}

// yearSim3 parses years and compares with a ±3 year window; unparsable
// values compare as string equality.
func yearSim3(a, b string) float64 { return yearWindow(a, b, 3) }

// yearWindow is the parameterised year comparator.
func yearWindow(a, b string, maxDiff int) float64 {
	ya, errA := strconv.Atoi(a)
	yb, errB := strconv.Atoi(b)
	if errA != nil || errB != nil {
		return strutil.Exact(a, b)
	}
	return strutil.YearSim(ya, yb, maxDiff)
}

// relNumericSim parses numbers and compares with a tolerance of 10% of
// the larger magnitude; unparsable values compare as string equality.
func relNumericSim(a, b string) float64 { return numericTolerance(a, b, 0.1) }

// numericTolerance is the parameterised numeric comparator.
func numericTolerance(a, b string, rel float64) float64 {
	va, errA := strconv.ParseFloat(a, 64)
	vb, errB := strconv.ParseFloat(b, 64)
	if errA != nil || errB != nil {
		return strutil.Exact(a, b)
	}
	scale := va
	if vb > scale {
		scale = vb
	}
	if scale < 1 {
		scale = 1
	}
	return strutil.NumericSim(va, vb, rel*scale)
}

// Pair computes the feature vector of a single record pair under the
// scheme.
func (s Scheme) Pair(a, b dataset.Record) []float64 {
	x := make([]float64, len(s.Comparators))
	for i, c := range s.Comparators {
		va, vb := "", ""
		if c.Attr >= 0 && c.Attr < len(a.Values) {
			va = a.Values[c.Attr]
		}
		if c.Attr >= 0 && c.Attr < len(b.Values) {
			vb = b.Values[c.Attr]
		}
		if va == "" || vb == "" {
			if s.Missing == MissingHalf {
				x[i] = 0.5
			}
			continue
		}
		v := c.Sim(va, vb)
		// Clamp against comparator bugs so downstream code can rely on
		// the [0,1] feature space the paper's Eq. (2) normalises with.
		if v < 0 {
			v = 0
		} else if v > 1 {
			v = 1
		}
		x[i] = v
	}
	if s.Quantize > 0 {
		for i, v := range x {
			x[i] = math.Round(v/s.Quantize) * s.Quantize
		}
	}
	return x
}

// MeanSimilarity returns the per-row mean feature value — the summary
// statistic used for the Figure 2 similarity histograms.
func MeanSimilarity(x [][]float64) []float64 {
	out := make([]float64, len(x))
	for i, row := range x {
		if len(row) == 0 {
			continue
		}
		s := 0.0
		for _, v := range row {
			s += v
		}
		out[i] = s / float64(len(row))
	}
	return out
}
