package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strings"
)

// WriteCSV serialises the database as CSV with a header row of
// "id,entity_id,<attr:type>...". Attribute types are encoded in the
// header so ReadCSV can reconstruct the schema.
func WriteCSV(w io.Writer, db *Database) error {
	cw := csv.NewWriter(w)
	header := []string{"id", "entity_id"}
	for _, a := range db.Schema.Attributes {
		header = append(header, a.Name+":"+a.Type.String())
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("dataset: writing header: %w", err)
	}
	row := make([]string, 0, len(header))
	for _, r := range db.Records {
		row = row[:0]
		row = append(row, r.ID, r.EntityID)
		row = append(row, r.Values...)
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("dataset: writing record %s: %w", r.ID, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSVFile writes the database to the named file.
func WriteCSVFile(path string, db *Database) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := WriteCSV(f, db); err != nil {
		return err
	}
	return f.Close()
}

// ReadCSV parses a database previously written by WriteCSV. The
// database name is taken from the argument since CSV has no place for
// it.
func ReadCSV(r io.Reader, name string) (*Database, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading csv: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("dataset: empty csv")
	}
	header := rows[0]
	if len(header) < 2 || header[0] != "id" || header[1] != "entity_id" {
		return nil, fmt.Errorf("dataset: malformed header %v", header)
	}
	db := &Database{Name: name}
	for _, h := range header[2:] {
		parts := strings.SplitN(h, ":", 2)
		attr := Attribute{Name: parts[0], Type: AttrText}
		if len(parts) == 2 {
			t, err := parseAttrType(parts[1])
			if err != nil {
				return nil, err
			}
			attr.Type = t
		}
		db.Schema.Attributes = append(db.Schema.Attributes, attr)
	}
	m := db.Schema.NumAttributes()
	for i, row := range rows[1:] {
		if len(row) != m+2 {
			return nil, fmt.Errorf("dataset: row %d has %d fields, want %d", i+1, len(row), m+2)
		}
		db.Records = append(db.Records, Record{
			ID:       row[0],
			EntityID: row[1],
			Values:   append([]string(nil), row[2:]...),
		})
	}
	if err := db.Validate(); err != nil {
		return nil, err
	}
	return db, nil
}

// ReadCSVFile reads a database from the named file.
func ReadCSVFile(path, name string) (*Database, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCSV(f, name)
}

// ParseAttrType resolves an attribute type's String() form back to the
// constant — the inverse used by the CSV header reader and by model
// artifacts (internal/model) that persist schemas as text.
func ParseAttrType(s string) (AttrType, error) { return parseAttrType(s) }

func parseAttrType(s string) (AttrType, error) {
	switch s {
	case "name":
		return AttrName, nil
	case "text":
		return AttrText, nil
	case "code":
		return AttrCode, nil
	case "year":
		return AttrYear, nil
	case "numeric":
		return AttrNumeric, nil
	}
	return 0, fmt.Errorf("dataset: unknown attribute type %q", s)
}
