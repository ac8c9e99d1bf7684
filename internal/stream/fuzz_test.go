package stream

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"transer/internal/dataset"
)

// FuzzIngestRecord feeds arbitrary bytes to the ingest payload parser:
// it must either reject the input with an error or return
// schema-width records that survive an encode → decode round trip and
// ingest cleanly into a live store. Panics, wrong-width records and
// silently dropped values are the bugs this hunts (schema mismatch,
// missing/extra fields and NaN-ish strings are all in the seed
// corpus).
func FuzzIngestRecord(f *testing.F) {
	f.Add([]byte(`{"records":[{"id":"a","attrs":{"name":"ada lovelace","city":"london"}}]}`))
	f.Add([]byte(`{"records":[{"attrs":{"name":"no id"}},{"attrs":{"city":"no name"}}]}`))
	f.Add([]byte(`{"records":[{"attrs":{"name":"NaN","city":"-Inf"}}]}`))
	f.Add([]byte(`{"records":[{"attrs":{"bogus":"unknown attribute"}}]}`))
	f.Add([]byte(`{"records":[{"attrs":{"name":"x"},"extra":"field"}]}`))
	f.Add([]byte(`{"records":[{"attrs":{"name":42}}]}`))
	f.Add([]byte(`{"records":[]}`))
	f.Add([]byte(`{"records":[{"attrs":{}}]} trailing`))
	f.Add([]byte("{\"records\":[{\"id\":\" \",\"attrs\":{\"name\":\"\xc3\x28\"}}]}"))
	f.Add([]byte(`not json`))

	schema := dataset.Schema{Attributes: []dataset.Attribute{
		{Name: "name", Type: dataset.AttrName},
		{Name: "city", Type: dataset.AttrText},
	}}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := DecodeRecords(data, schema)
		if err != nil {
			return // rejected inputs are fine; panics are not
		}
		if len(recs) == 0 {
			t.Fatal("DecodeRecords returned no records without an error")
		}
		for i, r := range recs {
			if len(r.Values) != len(schema.Attributes) {
				t.Fatalf("record %d has %d values, schema %d", i, len(r.Values), len(schema.Attributes))
			}
		}
		var buf bytes.Buffer
		if werr := EncodeRecords(&buf, recs, schema); werr != nil {
			t.Fatalf("EncodeRecords on parsed records: %v", werr)
		}
		again, rerr := DecodeRecords(buf.Bytes(), schema)
		if rerr != nil {
			t.Fatalf("re-decoding our own encoding: %v\n%s", rerr, buf.Bytes())
		}
		if len(again) != len(recs) {
			t.Fatalf("round trip changed record count %d -> %d", len(recs), len(again))
		}
		for i := range recs {
			for j := range recs[i].Values {
				if recs[i].Values[j] != again[i].Values[j] {
					t.Fatalf("round trip changed record %d value %d: %q -> %q",
						i, j, recs[i].Values[j], again[i].Values[j])
				}
			}
		}
		// Parsed records must ingest cleanly. Colliding record ids
		// (wire duplicates, or a wire id shadowing an assigned r<seq>)
		// are the one legitimate rejection.
		st, serr := NewStore(Config{Schema: schema, Threshold: 0.9})
		if serr != nil {
			t.Fatal(serr)
		}
		for _, r := range recs {
			if _, ierr := st.Ingest(context.Background(), r); ierr != nil &&
				!strings.Contains(ierr.Error(), "already stored") {
				t.Fatalf("parsed record rejected by ingest: %v (%+v)", ierr, r)
			}
		}
	})
}

// FuzzRecover writes fuzzed snapshot and WAL bytes to files and
// recovers a store from them: Recover must either return an error or a
// store whose snapshot round-trips, loading back into a store that
// writes the same bytes again. Panics are the bugs this hunts. Empty
// snapshot bytes stand for a missing snapshot file, so the WAL-only
// path is fuzzed too. The seeds are a real snapshot/WAL pair, written
// half-way through and at the end of an ingest stream, plus a torn
// and a corrupt WAL tail.
func FuzzRecover(f *testing.F) {
	schema, records := buildStream(36, 6)
	cfg := persistCfg(schema)
	st, err := NewStore(cfg)
	if err != nil {
		f.Fatal(err)
	}
	seedPath := filepath.Join(f.TempDir(), "seed.wal")
	w, err := OpenWAL(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	st.AttachWAL(w)
	var snap bytes.Buffer
	for i, r := range records {
		if _, err := st.Ingest(context.Background(), r); err != nil {
			f.Fatal(err)
		}
		if i == len(records)/2 {
			if err := st.WriteSnapshot(&snap); err != nil {
				f.Fatal(err)
			}
		}
	}
	if err := st.CloseWAL(); err != nil {
		f.Fatal(err)
	}
	wal, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap.Bytes(), wal)
	f.Add([]byte(nil), wal)
	f.Add(snap.Bytes(), []byte(nil))
	f.Add(snap.Bytes(), wal[:len(wal)-7])
	f.Add(snap.Bytes(), append(append([]byte(nil), wal...), "{\"seq\":\n"...))

	f.Fuzz(func(t *testing.T, snapBytes, walBytes []byte) {
		dir := t.TempDir()
		snapPath := filepath.Join(dir, "store.snapshot")
		walPath := filepath.Join(dir, "store.wal")
		if len(snapBytes) > 0 {
			if err := os.WriteFile(snapPath, snapBytes, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(walPath, walBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Recover(cfg, snapPath, walPath)
		if err != nil {
			return // rejected inputs are fine; panics are not
		}
		if err := st.CloseWAL(); err != nil {
			t.Fatal(err)
		}
		var first bytes.Buffer
		if err := st.WriteSnapshot(&first); err != nil {
			t.Fatalf("snapshot of a recovered store: %v", err)
		}
		again, err := LoadSnapshot(cfg, bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reloading a recovered store's snapshot: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := again.WriteSnapshot(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("snapshot round trip changed the document:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}
