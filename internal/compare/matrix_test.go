package compare_test

import (
	"context"
	"testing"

	"transer/internal/compare"
	"transer/internal/dataset"
	"transer/internal/query"
)

// TestMatrix checks a scheme's feature matrix as the query engine
// builds it: one row per candidate pair, one feature per comparator,
// and all-ones rows for identical records.
func TestMatrix(t *testing.T) {
	sch := dataset.Schema{Attributes: []dataset.Attribute{
		{Name: "title", Type: dataset.AttrText},
		{Name: "author", Type: dataset.AttrName},
		{Name: "code", Type: dataset.AttrCode},
		{Name: "year", Type: dataset.AttrYear},
		{Name: "len", Type: dataset.AttrNumeric},
	}}
	s := compare.DefaultScheme(sch)
	db := &dataset.Database{Schema: sch, Records: []dataset.Record{
		{ID: "1", Values: []string{"a b", "x y", "c1", "1990", "10"}},
		{ID: "2", Values: []string{"a c", "x z", "c2", "1991", "12"}},
	}}
	pairs := []dataset.Pair{{A: 0, B: 0}, {A: 0, B: 1}, {A: 1, B: 1}}
	x, err := query.CompareMatrix(context.Background(), db, db, s, pairs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(x) != 3 {
		t.Fatalf("matrix rows = %d", len(x))
	}
	for i, row := range x {
		if len(row) != s.NumFeatures() {
			t.Errorf("row %d width = %d", i, len(row))
		}
	}
	// Diagonal pairs are identical records.
	for _, v := range x[0] {
		if v != 1 {
			t.Errorf("identical pair row = %v", x[0])
		}
	}
}
