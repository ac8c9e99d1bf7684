package stream

// Snapshot/restore. A snapshot stores the logical state — records in
// insertion order, each record's entity assignment, the merge journal
// and the entity ID allocator — plus the state fingerprint. Restore
// rebuilds the blocking index deterministically from the records (no
// scorer needed: entity assignments are data, not re-derived) and
// verifies the rebuilt fingerprint against the stored one, so a
// successful load IS the bitwise-identity proof. Recover composes
// snapshot load with WAL replay and torn-tail truncation into the
// restart path.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"

	"transer/internal/dataset"
	"transer/internal/model"
)

// SnapshotSchemaVersion identifies the snapshot document format.
const SnapshotSchemaVersion = "transer.stream.snapshot/v1"

type snapAttr struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

type snapRecord struct {
	ID     string   `json:"id"`
	Values []string `json:"values"`
	Entity uint64   `json:"entity"`
}

type snapshotDoc struct {
	Schema      string       `json:"schema"`
	Attributes  []snapAttr   `json:"attributes"`
	NextEntity  uint64       `json:"next_entity"`
	Records     []snapRecord `json:"records"`
	Journal     []Merge      `json:"journal"`
	Fingerprint string       `json:"fingerprint"`
}

// WriteSnapshot writes the store's state document to w.
func (s *Store) WriteSnapshot(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	fp, err := s.fingerprintLocked()
	if err != nil {
		return err
	}
	doc := snapshotDoc{
		Schema:      SnapshotSchemaVersion,
		NextEntity:  s.nextID,
		Journal:     s.journal,
		Fingerprint: fp,
	}
	for _, a := range s.schema.Attributes {
		doc.Attributes = append(doc.Attributes, snapAttr{Name: a.Name, Type: a.Type.String()})
	}
	for seq, r := range s.records {
		doc.Records = append(doc.Records, snapRecord{
			ID:     r.ID,
			Values: r.Values,
			Entity: s.entity[s.findRO(seq)],
		})
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(doc); err != nil {
		return err
	}
	// New snapshot boundary: lag restarts from zero. snapLen is atomic
	// because WriteSnapshot only holds the read lock.
	s.snapLen.Store(int64(len(s.records)))
	s.gSnapLag.Set(0)
	return nil
}

// SnapshotFile writes a snapshot atomically and durably through
// model.AtomicWriteFile (temp file, fsync, rename, directory fsync),
// so a crash mid-snapshot never leaves a partial document at path and
// a failed snapshot leaves the previous one in place.
func (s *Store) SnapshotFile(path string) error {
	return model.AtomicWriteFile(path, s.WriteSnapshot)
}

// LoadSnapshot restores a store from a snapshot document. The config
// must carry the same schema (and, for future ingests to behave
// identically, the same scheme/scorer/threshold/LSH) as the writing
// store. The rebuilt state's fingerprint is verified against the
// snapshot's stored fingerprint; a mismatch is an error, never a
// silently different store.
func LoadSnapshot(cfg Config, r io.Reader) (*Store, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var doc snapshotDoc
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("stream: bad snapshot: %w", err)
	}
	if doc.Schema != SnapshotSchemaVersion {
		return nil, fmt.Errorf("stream: snapshot schema %q, want %q", doc.Schema, SnapshotSchemaVersion)
	}
	if len(doc.Attributes) != len(cfg.Schema.Attributes) {
		return nil, fmt.Errorf("stream: snapshot has %d attributes, config schema %d",
			len(doc.Attributes), len(cfg.Schema.Attributes))
	}
	for i, a := range cfg.Schema.Attributes {
		if doc.Attributes[i].Name != a.Name || doc.Attributes[i].Type != a.Type.String() {
			return nil, fmt.Errorf("stream: snapshot attribute %d is %s:%s, config schema has %s:%s",
				i, doc.Attributes[i].Name, doc.Attributes[i].Type, a.Name, a.Type.String())
		}
	}
	st, err := NewStore(cfg)
	if err != nil {
		return nil, err
	}
	for seq, sr := range doc.Records {
		if sr.ID == "" {
			return nil, fmt.Errorf("stream: snapshot record %d has no id", seq)
		}
		if _, dup := st.byID[sr.ID]; dup {
			return nil, fmt.Errorf("stream: snapshot repeats record id %q", sr.ID)
		}
		rec := dataset.Record{ID: sr.ID, Values: sr.Values}
		if len(rec.Values) != len(cfg.Schema.Attributes) {
			return nil, fmt.Errorf("stream: snapshot record %q has %d values, schema %d",
				sr.ID, len(rec.Values), len(cfg.Schema.Attributes))
		}
		st.index.Add(st.index.Signature(rec))
		st.records = append(st.records, rec)
		st.byID[sr.ID] = seq
		st.parent = append(st.parent, seq)
		st.entity = append(st.entity, 0)
	}
	// Rebuild the union-find from the stored entity assignments, then
	// pin each root's entity ID.
	first := make(map[uint64]int)
	for seq, sr := range doc.Records {
		if f, ok := first[sr.Entity]; ok {
			st.parent[st.find(seq)] = st.find(f)
		} else {
			first[sr.Entity] = seq
		}
	}
	for e, f := range first {
		st.entity[st.find(f)] = e
	}
	st.journal = append(st.journal, doc.Journal...)
	if doc.NextEntity > 0 {
		st.nextID = doc.NextEntity
	}
	fp, err := st.fingerprintLocked()
	if err != nil {
		return nil, err
	}
	if fp != doc.Fingerprint {
		return nil, fmt.Errorf("stream: snapshot fingerprint mismatch: rebuilt %s, stored %s", fp, doc.Fingerprint)
	}
	st.gRecords.Set(float64(len(st.records)))
	st.gEntities.Set(float64(st.entityCount()))
	st.snapLen.Store(int64(len(st.records)))
	st.gWALSeq.Set(float64(len(st.records)))
	st.gSnapLag.Set(0)
	return st, nil
}

// LoadSnapshotFile restores a store from a snapshot file.
func LoadSnapshotFile(cfg Config, path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadSnapshot(cfg, f)
}

// Recover rebuilds a store from an optional snapshot plus an optional
// WAL, truncates any torn WAL tail left by a crash mid-append, and
// returns the store with the WAL attached and open for appending.
// Either path may be absent (a missing snapshot means an empty
// starting store; a missing WAL file is created). Records already
// covered by the snapshot are skipped during replay; the remainder
// re-run the full deterministic ingest path, so the recovered store
// fingerprints identically to the store that wrote the log.
func Recover(cfg Config, snapshotPath, walPath string) (*Store, error) {
	var st *Store
	var err error
	if snapshotPath != "" {
		st, err = LoadSnapshotFile(cfg, snapshotPath)
		if errors.Is(err, fs.ErrNotExist) {
			st, err = NewStore(cfg)
		}
	} else {
		st, err = NewStore(cfg)
	}
	if err != nil {
		return nil, err
	}
	if walPath == "" {
		return st, nil
	}
	if _, serr := os.Stat(walPath); serr == nil {
		st.mu.Lock()
		goodOffset, truncated, rerr := replayWAL(walPath, func(e walEntry) error {
			if e.Seq < len(st.records) {
				return nil // covered by the snapshot
			}
			if e.Seq != len(st.records) {
				return fmt.Errorf("stream: WAL entry seq %d, store has %d records", e.Seq, len(st.records))
			}
			_, ierr := st.ingestLocked(context.Background(), dataset.Record{ID: e.ID, Values: e.Values}, false)
			return ierr
		})
		st.mu.Unlock()
		if rerr != nil {
			return nil, rerr
		}
		if truncated {
			if terr := os.Truncate(walPath, goodOffset); terr != nil {
				return nil, terr
			}
		}
	} else if !errors.Is(serr, fs.ErrNotExist) {
		return nil, serr
	}
	w, err := OpenWAL(walPath)
	if err != nil {
		return nil, err
	}
	st.AttachWAL(w)
	return st, nil
}
