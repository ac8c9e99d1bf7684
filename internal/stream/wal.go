package stream

// Write-ahead log: one JSON line per admitted record, appended before
// the store mutates. Replay re-runs the full deterministic ingest
// path, so a store rebuilt from its WAL is byte-identical (same
// fingerprint) to the store that wrote it. A torn final line — the
// crash-mid-append case — is detected and truncated away on recovery;
// everything before it replays.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// walEntry is one WAL line: the admitted record and its expected
// insertion sequence (a replay cross-check).
type walEntry struct {
	Seq    int      `json:"seq"`
	ID     string   `json:"id"`
	Values []string `json:"values"`
}

// WAL is an append-only record log. Append is not safe for concurrent
// use on its own; the owning store serialises appends under its write
// lock.
type WAL struct {
	f    *os.File
	path string
}

// OpenWAL opens (creating if absent) a WAL for appending.
func OpenWAL(path string) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &WAL{f: f, path: path}, nil
}

// Append writes one record line and flushes it to the OS.
func (w *WAL) Append(seq int, id string, values []string) error {
	line, err := json.Marshal(walEntry{Seq: seq, ID: id, Values: values})
	if err != nil {
		return err
	}
	line = append(line, '\n')
	_, err = w.f.Write(line)
	return err
}

// Sync fsyncs the log file.
func (w *WAL) Sync() error { return w.f.Sync() }

// Close closes the log file.
func (w *WAL) Close() error { return w.f.Close() }

// AttachWAL makes the store append every subsequently admitted record
// to w before mutating. Attach after recovery, so replayed records are
// not re-logged.
func (s *Store) AttachWAL(w *WAL) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.wal = w
}

// CloseWAL syncs, closes and detaches the store's WAL; a no-op when
// none is attached. Call on shutdown after the last ingest drained.
func (s *Store) CloseWAL() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	w := s.wal
	s.wal = nil
	if err := w.Sync(); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// replayWAL reads entries from path and applies each complete line via
// apply. It returns the byte offset just past the last complete entry
// and whether a torn (truncated) final line was found. A complete line
// that fails to parse is corruption and an error; a final line without
// its newline is the expected crash artifact and is reported, not
// failed.
func replayWAL(path string, apply func(walEntry) error) (goodOffset int64, truncated bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	for {
		line, rerr := br.ReadBytes('\n')
		if rerr != nil {
			if errors.Is(rerr, io.EOF) {
				return goodOffset, len(line) > 0, nil
			}
			return goodOffset, false, rerr
		}
		var e walEntry
		if jerr := json.Unmarshal(line, &e); jerr != nil {
			return goodOffset, false, fmt.Errorf("stream: corrupt WAL line at offset %d: %w", goodOffset, jerr)
		}
		if aerr := apply(e); aerr != nil {
			return goodOffset, false, aerr
		}
		goodOffset += int64(len(line))
	}
}
