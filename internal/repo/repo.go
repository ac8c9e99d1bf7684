package repo

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"transer/internal/model"
)

// IndexSchemaVersion identifies the catalog index JSON document.
const IndexSchemaVersion = "transer.repo/v1"

// modelsDir is the subdirectory holding one artifact file per model,
// named <fingerprint>.json — the content address is the filename, so
// the directory alone reconstructs the catalog.
const modelsDir = "models"

// indexFile is the cached catalog index at the repository root. It is
// written atomically (model.AtomicWriteFile) and treated strictly as a
// cache: Open reconciles it against the artifact files and rewrites it
// when they disagree, so deleting it loses nothing.
const indexFile = "index.json"

// Entry is one catalogued model: the artifact's identity and the
// metadata search and selection need without loading the classifier.
type Entry struct {
	// Fingerprint is the artifact's hex SHA-256 identity
	// (model.Artifact.Fingerprint) and its address in the catalog.
	Fingerprint string    `json:"fingerprint"`
	Name        string    `json:"name"`
	CreatedAt   time.Time `json:"created_at"`
	Classifier  string    `json:"classifier"`
	Threshold   float64   `json:"threshold"`
	// SchemeSignature pins the comparison scheme; ensembles may only
	// combine models sharing it (their feature spaces coincide).
	SchemeSignature string `json:"scheme_signature"`
	// SourceName/TargetName are the training provenance domain names.
	SourceName string `json:"source_name,omitempty"`
	TargetName string `json:"target_name,omitempty"`
	// Signature is the model's domain signature (nil for artifacts
	// exported before signatures existed; such models are catalogued
	// but rank at similarity 0).
	Signature *model.Signature `json:"signature,omitempty"`
}

// entryOf projects an artifact onto its catalog entry.
func entryOf(a *model.Artifact, fp string) Entry {
	return Entry{
		Fingerprint:     fp,
		Name:            a.Name,
		CreatedAt:       a.CreatedAt,
		Classifier:      a.Classifier.Type,
		Threshold:       a.Threshold,
		SchemeSignature: a.Scheme.Signature,
		SourceName:      a.Provenance.SourceName,
		TargetName:      a.Provenance.TargetName,
		Signature:       a.Provenance.Signature,
	}
}

// index is the persisted catalog index document.
type index struct {
	Schema  string  `json:"schema"`
	Entries []Entry `json:"entries"`
}

// Catalog is a persistent, content-addressed model repository rooted
// at a directory:
//
//	<dir>/models/<fingerprint>.json   one artifact per model
//	<dir>/index.json                  atomically swapped entry cache
//
// All methods are safe for concurrent use. Matchers are assembled
// lazily and cached per fingerprint; artifacts are immutable once
// added (the fingerprint is the content), so the cache never goes
// stale.
type Catalog struct {
	dir string

	mu       sync.RWMutex
	entries  map[string]Entry
	matchers map[string]*model.Matcher
}

// Open opens (creating if necessary) the catalog rooted at dir and
// reconciles the index against the artifact files: entries whose file
// vanished are dropped, artifact files missing from the index are
// decoded and adopted (this is the crash-recovery path — the artifact
// write commits a model, the index is only a cache), and a reconciled
// index is rewritten atomically when anything changed. Artifact files
// that fail to decode or whose content does not match their filename
// are skipped with an error listing them, after the valid remainder
// has been catalogued.
func Open(dir string) (*Catalog, error) {
	if err := os.MkdirAll(filepath.Join(dir, modelsDir), 0o755); err != nil {
		return nil, err
	}
	c := &Catalog{
		dir:      dir,
		entries:  make(map[string]Entry),
		matchers: make(map[string]*model.Matcher),
	}

	indexed := make(map[string]Entry)
	if b, err := os.ReadFile(filepath.Join(dir, indexFile)); err == nil {
		var ix index
		// A corrupt or foreign index is not an error: the artifact scan
		// below rebuilds it from scratch.
		if jsonErr := decodeStrict(b, &ix); jsonErr == nil && ix.Schema == IndexSchemaVersion {
			for _, e := range ix.Entries {
				indexed[e.Fingerprint] = e
			}
		}
	}

	names, err := listModelFiles(filepath.Join(dir, modelsDir))
	if err != nil {
		return nil, err
	}
	var bad []string
	drift := len(indexed) != len(names)
	for _, name := range names {
		fp := strings.TrimSuffix(name, ".json")
		if e, ok := indexed[fp]; ok {
			c.entries[fp] = e
			continue
		}
		drift = true
		a, err := model.Load(filepath.Join(dir, modelsDir, name))
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s: %v", name, err))
			continue
		}
		got, err := a.Fingerprint()
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s: %v", name, err))
			continue
		}
		if got != fp {
			bad = append(bad, fmt.Sprintf("%s: content fingerprint %s does not match filename", name, got))
			continue
		}
		c.entries[fp] = entryOf(a, fp)
	}
	if drift {
		if err := c.writeIndexLocked(); err != nil {
			return nil, err
		}
	}
	if len(bad) > 0 {
		return c, fmt.Errorf("repo: %d invalid artifact file(s) skipped: %s", len(bad), strings.Join(bad, "; "))
	}
	return c, nil
}

// listModelFiles returns the ".json" artifact filenames under dir,
// sorted, skipping temp files and subdirectories.
func listModelFiles(dir string) ([]string, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || strings.HasPrefix(name, ".") || !strings.HasSuffix(name, ".json") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// Dir returns the catalog root directory.
func (c *Catalog) Dir() string { return c.dir }

// Len returns the number of catalogued models.
func (c *Catalog) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// Add catalogues an artifact: the artifact file is written first
// (atomically, under its fingerprint), then the index is updated.
// Adding an artifact already present is a no-op returning the existing
// entry — content addressing makes Add idempotent.
func (c *Catalog) Add(a *model.Artifact) (Entry, error) {
	fp, err := a.Fingerprint()
	if err != nil {
		return Entry{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[fp]; ok {
		return e, nil
	}
	if err := a.WriteFile(c.artifactPath(fp)); err != nil {
		return Entry{}, err
	}
	e := entryOf(a, fp)
	c.entries[fp] = e
	if err := c.writeIndexLocked(); err != nil {
		return Entry{}, err
	}
	return e, nil
}

// AddFile loads an artifact from path and catalogues it.
func (c *Catalog) AddFile(path string) (Entry, error) {
	a, err := model.Load(path)
	if err != nil {
		return Entry{}, err
	}
	return c.Add(a)
}

// Evict removes the model selected by sel (a fingerprint, unique
// fingerprint prefix, or unique model name) from the catalog and
// deletes its artifact file.
func (c *Catalog) Evict(sel string) (Entry, error) {
	e, err := c.Resolve(sel)
	if err != nil {
		return Entry{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := os.Remove(c.artifactPath(e.Fingerprint)); err != nil && !os.IsNotExist(err) {
		return Entry{}, err
	}
	delete(c.entries, e.Fingerprint)
	delete(c.matchers, e.Fingerprint)
	if err := c.writeIndexLocked(); err != nil {
		return Entry{}, err
	}
	return e, nil
}

// List returns all entries sorted by (name, fingerprint).
func (c *Catalog) List() []Entry {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]Entry, 0, len(c.entries))
	for _, e := range c.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Fingerprint < out[j].Fingerprint
	})
	return out
}

// Resolve finds the entry selected by sel: a full fingerprint, a
// unique fingerprint prefix (at least 4 hex digits), or a unique model
// name. Ambiguity and absence are distinct errors.
func (c *Catalog) Resolve(sel string) (Entry, error) {
	if sel == "" {
		return Entry{}, fmt.Errorf("repo: empty model selector")
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	if e, ok := c.entries[sel]; ok {
		return e, nil
	}
	var hits []Entry
	if len(sel) >= 4 && isHex(sel) {
		for fp, e := range c.entries {
			if strings.HasPrefix(fp, sel) {
				hits = append(hits, e)
			}
		}
	}
	if len(hits) == 0 {
		for _, e := range c.entries {
			if e.Name == sel {
				hits = append(hits, e)
			}
		}
	}
	switch len(hits) {
	case 1:
		return hits[0], nil
	case 0:
		return Entry{}, fmt.Errorf("repo: no model matches %q (catalog has %d models)", sel, len(c.entries))
	default:
		sort.Slice(hits, func(i, j int) bool { return hits[i].Fingerprint < hits[j].Fingerprint })
		fps := make([]string, len(hits))
		for i, e := range hits {
			fps[i] = e.Fingerprint[:12]
		}
		return Entry{}, fmt.Errorf("repo: selector %q is ambiguous (matches %s)", sel, strings.Join(fps, ", "))
	}
}

// Matcher returns the assembled matcher of the model selected by sel,
// loading and caching it on first use.
func (c *Catalog) Matcher(sel string) (*model.Matcher, error) {
	e, err := c.Resolve(sel)
	if err != nil {
		return nil, err
	}
	c.mu.RLock()
	m, ok := c.matchers[e.Fingerprint]
	c.mu.RUnlock()
	if ok {
		return m, nil
	}
	m, err = model.LoadMatcher(c.artifactPath(e.Fingerprint))
	if err != nil {
		return nil, err
	}
	if got := m.Fingerprint(); got != e.Fingerprint {
		return nil, fmt.Errorf("repo: artifact %s content changed on disk (fingerprint now %s)", e.Fingerprint[:12], got[:12])
	}
	c.mu.Lock()
	c.matchers[e.Fingerprint] = m
	c.mu.Unlock()
	return m, nil
}

func (c *Catalog) artifactPath(fp string) string {
	return filepath.Join(c.dir, modelsDir, fp+".json")
}

// writeIndexLocked rewrites the index cache atomically. Callers hold
// c.mu (read lock suffices for the entry snapshot at Open time, but
// all current callers hold the write lock or are single-threaded).
func (c *Catalog) writeIndexLocked() error {
	ix := index{Schema: IndexSchemaVersion, Entries: make([]Entry, 0, len(c.entries))}
	for _, e := range c.entries {
		ix.Entries = append(ix.Entries, e)
	}
	sort.Slice(ix.Entries, func(i, j int) bool {
		return ix.Entries[i].Fingerprint < ix.Entries[j].Fingerprint
	})
	b, err := encodeIndex(ix)
	if err != nil {
		return err
	}
	return model.AtomicWriteFile(filepath.Join(c.dir, indexFile), func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	})
}

func isHex(s string) bool {
	for _, r := range s {
		switch {
		case r >= '0' && r <= '9', r >= 'a' && r <= 'f':
		default:
			return false
		}
	}
	return true
}
