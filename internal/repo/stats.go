package repo

import (
	"transer/internal/blocking"
	"transer/internal/dataset"
	"transer/internal/model"
	"transer/internal/strutil"
)

// sketchK is the KMV sketch size of a signature's token sketch. 256
// keeps the relative standard error near 6% at a few KB per sketch.
const sketchK = 256

// fieldStats summarises every schema attribute across both databases
// (null/distinct ratios and mean word-token count, each in a fixed
// order so the result is deterministic) and pools their word tokens
// into one KMV sketch that shares MinHash blocking's token hashing.
// One pass per database; for a self-join pass b == a.
func fieldStats(a, b *dataset.Database) ([]model.FieldSignature, *blocking.KMV) {
	m := a.Schema.NumAttributes()
	nonEmpty := make([]int, m)
	nulls := make([]int, m)
	fieldTokens := make([]int, m)
	distinct := make([]map[string]bool, m)
	for j := range distinct {
		distinct[j] = make(map[string]bool)
	}

	sketch := blocking.NewKMV(sketchK)
	walk := func(db *dataset.Database) {
		for _, r := range db.Records {
			for j, v := range r.Values {
				if j >= m {
					break
				}
				if v == "" {
					nulls[j]++
					continue
				}
				nonEmpty[j]++
				distinct[j][v] = true
				toks := strutil.Tokens(v)
				fieldTokens[j] += len(toks)
				for _, t := range toks {
					sketch.AddToken(t)
				}
			}
		}
	}
	walk(a)
	if b != a {
		walk(b)
	}

	fields := make([]model.FieldSignature, m)
	for j, attr := range a.Schema.Attributes {
		f := model.FieldSignature{Name: attr.Name, Type: attr.Type.String()}
		if tot := nonEmpty[j] + nulls[j]; tot > 0 {
			f.NullRatio = float64(nulls[j]) / float64(tot)
		}
		if nonEmpty[j] > 0 {
			f.DistinctRatio = float64(len(distinct[j])) / float64(nonEmpty[j])
			f.AvgTokens = float64(fieldTokens[j]) / float64(nonEmpty[j])
		}
		fields[j] = f
	}
	return fields, sketch
}
