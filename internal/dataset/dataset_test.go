package dataset

import (
	"bytes"
	"strings"
	"testing"
)

func sampleDB() *Database {
	return &Database{
		Name: "test",
		Schema: Schema{Attributes: []Attribute{
			{Name: "title", Type: AttrText},
			{Name: "author", Type: AttrName},
			{Name: "year", Type: AttrYear},
		}},
		Records: []Record{
			{ID: "r1", EntityID: "e1", Values: []string{"a paper", "smith", "1990"}},
			{ID: "r2", EntityID: "e2", Values: []string{"other paper", "jones", "1991"}},
			{ID: "r3", EntityID: "e1", Values: []string{"a paper!", "smyth", "1990"}},
		},
	}
}

func TestValidate(t *testing.T) {
	db := sampleDB()
	if err := db.Validate(); err != nil {
		t.Fatalf("valid db rejected: %v", err)
	}
	bad := sampleDB()
	bad.Records[0].Values = bad.Records[0].Values[:2]
	if err := bad.Validate(); err == nil {
		t.Errorf("short record accepted")
	}
	dup := sampleDB()
	dup.Records[1].ID = "r1"
	if err := dup.Validate(); err == nil {
		t.Errorf("duplicate id accepted")
	}
	noid := sampleDB()
	noid.Records[2].ID = ""
	if err := noid.Validate(); err == nil {
		t.Errorf("empty id accepted")
	}
}

func TestSchemaEqual(t *testing.T) {
	a := sampleDB().Schema
	b := sampleDB().Schema
	if !a.Equal(b) {
		t.Errorf("identical schemas not equal")
	}
	b.Attributes[0].Type = AttrName
	if a.Equal(b) {
		t.Errorf("different types considered equal")
	}
	c := Schema{Attributes: a.Attributes[:2]}
	if a.Equal(c) {
		t.Errorf("different widths considered equal")
	}
}

func TestAttrTypeString(t *testing.T) {
	want := map[AttrType]string{
		AttrName: "name", AttrText: "text", AttrCode: "code",
		AttrYear: "year", AttrNumeric: "numeric",
	}
	for k, v := range want {
		if k.String() != v {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), v)
		}
	}
	if !strings.Contains(AttrType(99).String(), "99") {
		t.Errorf("unknown type should include the number")
	}
}

func TestGroundTruthAndLabels(t *testing.T) {
	a := sampleDB()
	b := &Database{
		Name:   "other",
		Schema: a.Schema,
		Records: []Record{
			{ID: "s1", EntityID: "e1", Values: []string{"a paper", "smith", "1990"}},
			{ID: "s2", EntityID: "e9", Values: []string{"unrelated", "brown", "2000"}},
		},
	}
	truth := GroundTruth(a, b)
	// e1 appears twice in a (r1, r3) and once in b (s1) => 2 pairs.
	if len(truth) != 2 {
		t.Fatalf("truth size = %d, want 2", len(truth))
	}
	if !truth.Contains(0, 0) || !truth.Contains(2, 0) {
		t.Errorf("expected pairs (0,0) and (2,0), got %v", truth)
	}
	pairs := []Pair{{0, 0}, {1, 1}, {2, 0}}
	labels := LabelPairs(pairs, truth)
	if labels[0] != 1 || labels[1] != 0 || labels[2] != 1 {
		t.Errorf("labels = %v", labels)
	}
}

func TestGroundTruthIgnoresEmptyEntityIDs(t *testing.T) {
	a := &Database{Schema: Schema{}, Records: []Record{{ID: "x", EntityID: ""}}}
	b := &Database{Schema: Schema{}, Records: []Record{{ID: "y", EntityID: ""}}}
	if truth := GroundTruth(a, b); len(truth) != 0 {
		t.Errorf("empty entity ids should never match, got %v", truth)
	}
}

func TestPairSetSorted(t *testing.T) {
	ps := make(PairSet)
	ps.Add(2, 1)
	ps.Add(0, 5)
	ps.Add(2, 0)
	got := ps.Sorted()
	want := []Pair{{0, 5}, {2, 0}, {2, 1}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sorted = %v, want %v", got, want)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	db := sampleDB()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, db); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	back, err := ReadCSV(&buf, "test")
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if !back.Schema.Equal(db.Schema) {
		t.Errorf("schema mismatch after round trip: %+v", back.Schema)
	}
	if len(back.Records) != len(db.Records) {
		t.Fatalf("record count %d, want %d", len(back.Records), len(db.Records))
	}
	for i := range db.Records {
		if back.Records[i].ID != db.Records[i].ID ||
			back.Records[i].EntityID != db.Records[i].EntityID {
			t.Errorf("record %d identity mismatch", i)
		}
		for j := range db.Records[i].Values {
			if back.Records[i].Values[j] != db.Records[i].Values[j] {
				t.Errorf("record %d value %d mismatch", i, j)
			}
		}
	}
}

func TestReadCSVRejectsMalformed(t *testing.T) {
	cases := []string{
		"",                              // empty
		"foo,bar\n1,2",                  // wrong header
		"id,entity_id,a:text\nr1",       // short row
		"id,entity_id,a:bogus\nr1,e1,x", // unknown type
	}
	for i, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c), "x"); err == nil {
			t.Errorf("case %d: malformed csv accepted", i)
		}
	}
}
