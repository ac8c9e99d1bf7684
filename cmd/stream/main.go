// Command stream is the batch-replay mode of the live entity store
// (internal/stream): it reads a record set, ingests every record
// through the same incremental ingest path cmd/serve -stream uses, and
// writes a JSON replay summary (entities, merges, throughput, store
// fingerprint).
//
// Usage:
//
//	stream -dataset DBLP-ACM -scale 0.3                     # builtin pair, dedup universe
//	stream -a a.csv -b b.csv -model model.json              # model-scored replay
//	stream -a a.csv -selfcheck 5                            # + differential check vs batch
//	stream -a a.csv -wal store.wal -snapshot store.snap     # durable replay
//
// Inputs mirror cmd/query: a built-in generated dataset pair
// (-dataset; both sides are concatenated into one dedup universe,
// blocked with the pair's recommended LSH configuration) or CSV files
// in the cmd/datagen format. With -model records are scored by a
// transer.model/v1 artifact exactly as cmd/serve scores them and the
// threshold defaults to the model's; without it, scores are mean
// feature similarity at -threshold (default 0.85).
//
// -selfcheck N runs the differential harness
// (internal/testkit/streamdiff) after the replay: the final streaming
// partition must equal the batch query-engine partition for the
// natural order plus N shuffled orders. A divergence exits non-zero
// and prints the offending order.
//
// -wal appends every admitted record to a write-ahead log and replays
// an existing log on start (records already stored are skipped, so a
// resumed replay is idempotent); -snapshot loads a snapshot on start
// and writes one after the replay. -resolve N re-probes the first N
// ingested records read-only, exercising the resolve path for
// benchmarks. -metrics-out writes a transer.obs.report/v1 run report
// whose ingest/resolve spans cmd/benchreport aggregates into
// BENCH_stream.json.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"transer/internal/datagen"
	"transer/internal/dataset"
	"transer/internal/model"
	"transer/internal/obs"
	"transer/internal/stream"
	"transer/internal/testkit/streamdiff"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "stream:", err)
		os.Exit(1)
	}
}

// SummarySchemaVersion identifies the replay summary format.
const SummarySchemaVersion = "transer.stream.replay/v1"

// Document is the JSON replay summary.
type Document struct {
	Schema      string      `json:"schema"`
	Dataset     string      `json:"dataset"`
	Scorer      string      `json:"scorer"`
	Threshold   float64     `json:"threshold"`
	Replayed    int         `json:"replayed"`
	Skipped     int         `json:"skipped,omitempty"`
	Records     int         `json:"records"`
	Entities    int         `json:"entities"`
	Merges      int         `json:"merges"`
	IngestMS    float64     `json:"ingest_ms"`
	IngestPerS  float64     `json:"ingest_per_s"`
	Resolved    int         `json:"resolved,omitempty"`
	Matched     int         `json:"matched,omitempty"`
	ResolveMS   float64     `json:"resolve_ms,omitempty"`
	EntitySizes map[int]int `json:"entity_sizes"`
	Fingerprint string      `json:"fingerprint"`
	SelfCheck   *SelfCheck  `json:"self_check,omitempty"`
}

// SelfCheck reports the differential harness verdict.
type SelfCheck struct {
	Orders int  `json:"orders"`
	OK     bool `json:"ok"`
}

func run() error {
	var (
		datasetKey = flag.String("dataset", "", "built-in dataset pair key (as cmd/datagen); both sides replay into one dedup universe")
		scale      = flag.Float64("scale", 0.3, "size scale factor for -dataset")
		aPath      = flag.String("a", "", "A-side CSV file (cmd/datagen format)")
		bPath      = flag.String("b", "", "B-side CSV file, concatenated after A")
		modelPath  = flag.String("model", "", "score with a transer.model/v1 artifact instead of mean feature similarity")
		threshold  = flag.Float64("threshold", -1, "match threshold (default: the model's decision threshold, or 0.85 without -model)")
		workers    = flag.Int("workers", 0, "scoring worker pool (0 = one per CPU; the final partition is identical for any value)")
		walPath    = flag.String("wal", "", "write-ahead log `file`: replayed on start, appended during the replay")
		snapPath   = flag.String("snapshot", "", "snapshot `file`: loaded on start if present, written after the replay")
		resolveN   = flag.Int("resolve", 0, "after the replay, re-probe the first `n` ingested records read-only")
		selfcheck  = flag.Int("selfcheck", -1, "run the differential harness over the natural order plus `n` shuffled orders (-1 = off)")
		seed       = flag.Int64("seed", 1, "rng seed for -selfcheck shuffles")
		outPath    = flag.String("out", "", "write the JSON summary to `file` (default stdout)")
		metricsOut = flag.String("metrics-out", "", "write a JSON run report (spans + metrics) to `file`")
		logOut     = flag.String("log-out", "", "write structured JSONL event logs to `file` (\"-\" or \"stderr\" for stderr; empty = logging disabled)")
		logLevel   = flag.String("log-level", "info", "minimum structured log level: debug, info, warn, error")
	)
	flag.Parse()

	var (
		db   *dataset.Database
		name string
		cfg  stream.Config
	)
	switch {
	case *datasetKey != "" && *aPath != "":
		return errors.New("-dataset and -a are mutually exclusive")
	case *datasetKey != "":
		builtin, ok := datagen.BuiltinByKey(*datasetKey)
		if !ok {
			return fmt.Errorf("unknown dataset %q (see cmd/datagen for the keys)", *datasetKey)
		}
		pair := builtin.Make(*scale)
		db = streamdiff.Universe(pair.A, pair.B)
		cfg.LSH = pair.Blocking
		name = pair.Name
	case *aPath != "":
		a, err := dataset.ReadCSVFile(*aPath, baseName(*aPath))
		if err != nil {
			return err
		}
		if *bPath != "" {
			b, err := dataset.ReadCSVFile(*bPath, baseName(*bPath))
			if err != nil {
				return err
			}
			db = streamdiff.Universe(a, b)
		} else {
			db = a
		}
		name = db.Name
	default:
		return errors.New("need an input: -dataset KEY or -a file.csv")
	}

	scorer := "mean"
	if *modelPath != "" {
		m, err := model.LoadMatcher(*modelPath)
		if err != nil {
			return err
		}
		if !m.Schema.Equal(db.Schema) {
			return fmt.Errorf("model %q expects attributes %v, dataset has %v",
				m.Artifact.Name, m.AttributeNames(), db.Schema.Names())
		}
		lsh := cfg.LSH
		cfg = stream.FromMatcher(m)
		cfg.LSH = lsh
		scorer = "model:" + m.Artifact.Name
	} else {
		cfg.Schema = db.Schema
		cfg.Threshold = 0.85
	}
	if *threshold >= 0 {
		cfg.Threshold = *threshold
	}
	cfg.Workers = *workers

	tr := obs.New("stream")
	cfg.Metrics = tr.Metrics()
	logger, closeLog, err := obs.OpenLogger(*logOut, *logLevel, tr)
	if err != nil {
		return err
	}
	cfg.Logger = logger

	st, err := stream.Recover(cfg, *snapPath, *walPath)
	if err != nil {
		return err
	}
	if n := st.Len(); n > 0 {
		fmt.Fprintf(os.Stderr, "stream: recovered %d records from %s\n", n, recoveredFrom(*snapPath, *walPath))
	}

	ctx := context.Background()
	doc := Document{
		Schema:    SummarySchemaVersion,
		Dataset:   name,
		Scorer:    scorer,
		Threshold: cfg.Threshold,
	}

	// Replay. Records already in the store (a resumed -wal replay)
	// are skipped so re-running the same command is idempotent.
	ingestStart := time.Now()
	probes := make([]dataset.Record, 0, *resolveN)
	for i, rec := range db.Records {
		id := replayID(db, i)
		if _, ok := st.EntityOf(id); ok {
			doc.Skipped++
			continue
		}
		rec.ID = id
		span := tr.Root().Child("ingest")
		_, err := st.Ingest(ctx, rec)
		span.End()
		if err != nil {
			return fmt.Errorf("record %d (%s): %w", i, id, err)
		}
		doc.Replayed++
		if len(probes) < *resolveN {
			probes = append(probes, rec)
		}
	}
	doc.IngestMS = float64(time.Since(ingestStart)) / float64(time.Millisecond)
	if doc.Replayed > 0 && doc.IngestMS > 0 {
		doc.IngestPerS = float64(doc.Replayed) / (doc.IngestMS / 1000)
	}

	// Read-only probes over the first -resolve ingested records.
	resolveStart := time.Now()
	for _, rec := range probes {
		span := tr.Root().Child("resolve")
		res, err := st.Resolve(ctx, dataset.Record{Values: rec.Values})
		span.End()
		if err != nil {
			return err
		}
		doc.Resolved++
		if res.Matched {
			doc.Matched++
		}
	}
	if doc.Resolved > 0 {
		doc.ResolveMS = float64(time.Since(resolveStart)) / float64(time.Millisecond)
	}

	stats := st.Stats()
	doc.Records, doc.Entities, doc.Merges = stats.Records, stats.Entities, stats.Merges
	doc.EntitySizes = map[int]int{}
	for _, members := range st.Partition() {
		doc.EntitySizes[len(members)]++
	}
	if doc.Fingerprint, err = st.Fingerprint(); err != nil {
		return err
	}

	if *snapPath != "" {
		if err := st.SnapshotFile(*snapPath); err != nil {
			return err
		}
	}
	if err := st.CloseWAL(); err != nil {
		return err
	}

	if *selfcheck >= 0 {
		rng := rand.New(rand.NewSource(*seed))
		tb := &cliTB{}
		ok := streamdiff.Check(tb, ctx, db, cfg, rng, *selfcheck)
		doc.SelfCheck = &SelfCheck{Orders: *selfcheck + 1, OK: ok}
	}

	out := io.Writer(os.Stdout)
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "stream: %d records -> %d entities (%d merges) at threshold %v\n",
		doc.Records, doc.Entities, doc.Merges, doc.Threshold)

	if err := closeLog(); err != nil {
		return err
	}
	if *metricsOut != "" {
		report := obs.BuildReport("stream", os.Args[1:], tr)
		if err := report.WriteFile(*metricsOut); err != nil {
			return err
		}
	}
	if doc.SelfCheck != nil && !doc.SelfCheck.OK {
		return fmt.Errorf("self-check FAILED: streaming partition diverged from batch (see diagnostics above)")
	}
	return nil
}

// replayID assigns each replayed record a stable unique id: the source
// id when the input guarantees uniqueness would be ideal, but linkage
// pairs routinely reuse ids across sides, so ids are keyed by position
// in the concatenated universe.
func replayID(db *dataset.Database, i int) string {
	id := db.Records[i].ID
	if id == "" {
		return fmt.Sprintf("u%d", i)
	}
	return fmt.Sprintf("u%d:%s", i, id)
}

func recoveredFrom(snap, wal string) string {
	var parts []string
	if snap != "" {
		parts = append(parts, "snapshot "+snap)
	}
	if wal != "" {
		parts = append(parts, "wal "+wal)
	}
	return strings.Join(parts, " + ")
}

func baseName(path string) string {
	base := filepath.Base(path)
	return strings.TrimSuffix(base, filepath.Ext(base))
}

// cliTB adapts the streamdiff.TB reporting surface to stderr.
type cliTB struct{ failed bool }

func (t *cliTB) Errorf(format string, args ...interface{}) {
	t.failed = true
	fmt.Fprintf(os.Stderr, "stream: selfcheck: "+format+"\n", args...)
}

func (t *cliTB) Logf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "stream: selfcheck: "+format+"\n", args...)
}
