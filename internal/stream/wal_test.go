package stream

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"transer/internal/blocking"
	"transer/internal/dataset"
	"transer/internal/testkit"
)

// buildStream generates a deterministic record stream for persistence
// tests.
func buildStream(seed int64, n int) (dataset.Schema, []dataset.Record) {
	rng := rand.New(rand.NewSource(seed))
	a, b := testkit.DatabasePair(rng, n)
	records := append(append([]dataset.Record(nil), a.Records...), b.Records...)
	for i := range records {
		records[i].ID = ""
		records[i].EntityID = ""
	}
	return a.Schema, records
}

func persistCfg(schema dataset.Schema) Config {
	return Config{Schema: schema, Threshold: 0.5, LSH: blocking.MinHashConfig{Seed: 7}}
}

func fingerprint(t *testing.T, st *Store) string {
	t.Helper()
	fp, err := st.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// TestWALReplayIdentical: a store rebuilt purely from its WAL
// fingerprints identically to the store that wrote it.
func TestWALReplayIdentical(t *testing.T) {
	schema, records := buildStream(31, 24)
	walPath := filepath.Join(t.TempDir(), "store.wal")

	w, err := OpenWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStore(persistCfg(schema))
	if err != nil {
		t.Fatal(err)
	}
	st.AttachWAL(w)
	for _, r := range records {
		if _, err := st.Ingest(context.Background(), r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	restored, err := Recover(persistCfg(schema), "", walPath)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprint(t, restored), fingerprint(t, st); got != want {
		t.Fatalf("WAL replay fingerprint %s, want %s", got, want)
	}
	if restored.Len() != len(records) {
		t.Fatalf("restored %d records, want %d", restored.Len(), len(records))
	}
}

// TestSnapshotRoundTrip: snapshot → load is bitwise state identity
// (the load itself verifies the fingerprint; this asserts it again and
// checks the restored store keeps evolving identically).
func TestSnapshotRoundTrip(t *testing.T) {
	schema, records := buildStream(32, 20)
	st, err := NewStore(persistCfg(schema))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records[:len(records)-1] {
		if _, err := st.Ingest(context.Background(), r); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadSnapshot(persistCfg(schema), bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprint(t, restored), fingerprint(t, st); got != want {
		t.Fatalf("snapshot load fingerprint %s, want %s", got, want)
	}

	last := records[len(records)-1]
	if _, err := st.Ingest(context.Background(), last); err != nil {
		t.Fatal(err)
	}
	if _, err := restored.Ingest(context.Background(), last); err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprint(t, restored), fingerprint(t, st); got != want {
		t.Fatal("stores diverge after post-restore ingest")
	}
}

// TestSnapshotTamperRejected: a snapshot whose content was altered
// fails the fingerprint check on load.
func TestSnapshotTamperRejected(t *testing.T) {
	schema, records := buildStream(33, 12)
	st, err := NewStore(persistCfg(schema))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		if _, err := st.Ingest(context.Background(), r); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	doc := buf.String()
	first := st.records[0].Values[0]
	tampered := strings.Replace(doc, first, first+"x", 1)
	if tampered == doc {
		t.Skip("could not tamper snapshot text")
	}
	if _, err := LoadSnapshot(persistCfg(schema), strings.NewReader(tampered)); err == nil ||
		!strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("tampered snapshot accepted: %v", err)
	}
}

// TestRecoverSnapshotPlusWAL: recovery from a mid-stream snapshot plus
// the full WAL replays only the tail and lands on the full store's
// fingerprint.
func TestRecoverSnapshotPlusWAL(t *testing.T) {
	schema, records := buildStream(34, 24)
	dir := t.TempDir()
	walPath := filepath.Join(dir, "store.wal")
	snapPath := filepath.Join(dir, "store.snapshot")

	w, err := OpenWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStore(persistCfg(schema))
	if err != nil {
		t.Fatal(err)
	}
	st.AttachWAL(w)
	cut := len(records) / 2
	for i, r := range records {
		if _, err := st.Ingest(context.Background(), r); err != nil {
			t.Fatal(err)
		}
		if i == cut {
			if err := st.SnapshotFile(snapPath); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	restored, err := Recover(persistCfg(schema), snapPath, walPath)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprint(t, restored), fingerprint(t, st); got != want {
		t.Fatalf("snapshot+WAL recovery fingerprint %s, want %s", got, want)
	}
}

// TestRecoverTruncatesTornTail is the crash-mid-journal case: the WAL
// ends in a torn half-line; recovery must replay the complete prefix,
// truncate the torn bytes, and leave the log appendable.
func TestRecoverTruncatesTornTail(t *testing.T) {
	schema, records := buildStream(35, 20)
	walPath := filepath.Join(t.TempDir(), "store.wal")

	w, err := OpenWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewStore(persistCfg(schema))
	if err != nil {
		t.Fatal(err)
	}
	ref.AttachWAL(w)
	for _, r := range records[:len(records)-1] {
		if _, err := ref.Ingest(context.Background(), r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	intactSize := int64(len(mustRead(t, walPath)))

	// Crash artifact: a half-written record line without its newline.
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte(`{"seq":99,"id":"torn","val`)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	restored, err := Recover(persistCfg(schema), "", walPath)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprint(t, restored), fingerprint(t, ref); got != want {
		t.Fatalf("torn-tail recovery fingerprint %s, want %s", got, want)
	}
	if got := int64(len(mustRead(t, walPath))); got != intactSize {
		t.Fatalf("torn tail not truncated: %d bytes, want %d", got, intactSize)
	}

	// The recovered store's attached WAL keeps working: ingest the
	// final record, recover again, compare against a reference fed the
	// same stream.
	last := records[len(records)-1]
	if _, err := restored.Ingest(context.Background(), last); err != nil {
		t.Fatal(err)
	}
	ref.AttachWAL(nil) // ref's log handle is closed; mirror in memory only
	if _, err := ref.Ingest(context.Background(), last); err != nil {
		t.Fatal(err)
	}
	again, err := Recover(persistCfg(schema), "", walPath)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprint(t, again), fingerprint(t, ref); got != want {
		t.Fatalf("post-recovery appends diverge: %s want %s", got, want)
	}
}

// TestRecoverCorruptLineFails: corruption in the middle of the log (a
// complete but unparsable line) is an error, not silent data loss.
func TestRecoverCorruptLineFails(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "store.wal")
	content := `{"seq":0,"id":"a","values":["x","y"]}` + "\n" +
		"not json at all\n" +
		`{"seq":1,"id":"b","values":["z","w"]}` + "\n"
	if err := os.WriteFile(walPath, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(persistCfg(twoAttrSchema()), "", walPath); err == nil ||
		!strings.Contains(err.Error(), "corrupt WAL") {
		t.Fatalf("corrupt line not rejected: %v", err)
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSnapshotFileFailureLeavesNoTemp checks that a snapshot that
// cannot land returns the error, leaves the previous snapshot loadable
// and leaves no temp file in the directory.
func TestSnapshotFileFailureLeavesNoTemp(t *testing.T) {
	schema, records := buildStream(36, 10)
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "store.snapshot")
	st, err := NewStore(persistCfg(schema))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		if _, err := st.Ingest(context.Background(), r); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.SnapshotFile(snapPath); err != nil {
		t.Fatal(err)
	}
	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := st.SnapshotFile(blocked); err == nil {
		t.Fatal("snapshot over a non-empty directory succeeded")
	}
	restored, err := LoadSnapshotFile(persistCfg(schema), snapPath)
	if err != nil {
		t.Fatalf("previous snapshot no longer loads: %v", err)
	}
	if got, want := fingerprint(t, restored), fingerprint(t, st); got != want {
		t.Fatalf("restored fingerprint %s, want %s", got, want)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
}
