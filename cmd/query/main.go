// Command query runs batch similarity-join queries ("all pairs with
// score ≥ τ") through the query engine (internal/query): it compiles
// the Scan → Block → Compare → Score → Filter → Limit plan, blocking
// with MinHash-LSH, and executes it over the deterministic worker
// pool.
//
// Usage:
//
//	query -dataset DBLP-ACM -scale 0.3 -threshold 0.9        # builtin pair
//	query -a a.csv -b b.csv -model model.json                # linkage, model-scored
//	query -a a.csv                                           # dedup self-join
//	query -a a.csv -b b.csv -explain                         # print the plan, don't run
//	query -a a.csv -b b.csv -sim name=smith_waterman         # swap a comparator
//
// Inputs are either a built-in generated dataset pair (-dataset with
// the keys cmd/datagen uses, blocked with its recommended LSH
// configuration) or CSV files in the cmd/datagen format (-a, -b; omit
// -b for dedup). With -model the pair is scored by a transer.model/v1
// artifact exactly as cmd/serve would score it and the threshold
// defaults to the model's decision threshold; without it, scores are
// mean feature similarity. Blocking is MinHash-LSH, the candidate
// relation training, the streaming store and repository signatures
// share, so a pair LSH does not propose is never scored: recall is
// bounded by blocking recall (DESIGN.md §11). -explain prints the
// EXPLAIN plan rendering and skips execution.
//
// Output (-format json|csv, -out file or stdout) is byte-identical for
// every -workers value. -metrics-out writes a transer.obs.report/v1
// run report with one span per plan operator.
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strconv"
	"strings"

	"transer/internal/datagen"
	"transer/internal/dataset"
	"transer/internal/model"
	"transer/internal/obs"
	"transer/internal/query"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "query:", err)
		os.Exit(1)
	}
}

// Document is the JSON result of one executed query.
type Document struct {
	Schema     string  `json:"schema"`
	DatasetA   string  `json:"dataset_a"`
	DatasetB   string  `json:"dataset_b,omitempty"`
	SelfJoin   bool    `json:"self_join,omitempty"`
	Strategy   string  `json:"strategy"`
	Scorer     string  `json:"scorer"`
	Threshold  float64 `json:"threshold"`
	Candidates int     `json:"candidates"`
	Count      int     `json:"count"`
	Matches    []Match `json:"matches"`
	Plan       string  `json:"plan"`
}

// Match is one result pair in the JSON document.
type Match struct {
	A     int     `json:"a"`
	B     int     `json:"b"`
	IDA   string  `json:"id_a"`
	IDB   string  `json:"id_b"`
	Score float64 `json:"score"`
}

func run() error {
	var (
		datasetKey = flag.String("dataset", "", "built-in dataset pair key (DBLP-ACM, DBLP-Scholar, MSD, MB, IOS-Bp-Dp, KIL-Bp-Dp, IOS-Bp-Bp, KIL-Bp-Bp)")
		scale      = flag.Float64("scale", 0.3, "size scale factor for -dataset")
		aPath      = flag.String("a", "", "A-side CSV file (cmd/datagen format)")
		bPath      = flag.String("b", "", "B-side CSV file; omitted = dedup self-join of A")
		modelPath  = flag.String("model", "", "score with a transer.model/v1 artifact instead of mean feature similarity")
		threshold  = flag.Float64("threshold", -1, "keep pairs with score >= threshold (default: the model's decision threshold, or 0.85 without -model)")
		limit      = flag.Int("limit", 0, "cap returned matches in deterministic index order (0 = unlimited)")
		format     = flag.String("format", "json", "output format: json|csv")
		outPath    = flag.String("out", "", "write results to `file` (default stdout)")
		explain    = flag.Bool("explain", false, "print the EXPLAIN plan rendering and skip execution")
		workers    = flag.Int("workers", 0, "worker pool size (0 = one per CPU; output identical for any value)")
		metricsOut = flag.String("metrics-out", "", "write a JSON run report (spans + metrics) to `file`")
		logOut     = flag.String("log-out", "", "write structured JSONL event logs to `file` (\"-\" or \"stderr\" for stderr; empty = logging disabled)")
		logLevel   = flag.String("log-level", "info", "minimum structured log level: debug, info, warn, error")
	)
	sims := map[string]string{}
	flag.Func("sim", "override one attribute's comparator as attr=name (repeatable; names from internal/compare registry)", func(v string) error {
		attr, name, ok := strings.Cut(v, "=")
		if !ok || attr == "" || name == "" {
			return fmt.Errorf("want attr=name, got %q", v)
		}
		sims[attr] = name
		return nil
	})
	flag.Parse()

	if *format != "json" && *format != "csv" {
		return fmt.Errorf("unknown -format %q (want json or csv)", *format)
	}

	job := query.Job{Limit: *limit, Workers: *workers, Comparators: sims}

	var err error
	switch {
	case *datasetKey != "" && *aPath != "":
		return errors.New("-dataset and -a are mutually exclusive")
	case *datasetKey != "":
		builtin, ok := lookupBuiltin(*datasetKey)
		if !ok {
			return fmt.Errorf("unknown dataset %q (see cmd/datagen for the keys)", *datasetKey)
		}
		pair := builtin.Make(*scale)
		job.A, job.B, job.LSH = pair.A, pair.B, pair.Blocking
	case *aPath != "":
		if job.A, err = dataset.ReadCSVFile(*aPath, baseName(*aPath)); err != nil {
			return err
		}
		if *bPath != "" {
			if job.B, err = dataset.ReadCSVFile(*bPath, baseName(*bPath)); err != nil {
				return err
			}
		}
	default:
		return errors.New("need an input: -dataset KEY or -a file.csv")
	}

	job.Threshold = *threshold
	if *modelPath != "" {
		if len(sims) > 0 {
			return errors.New("-sim cannot be combined with -model: the artifact fixes the comparison scheme its classifier was trained on")
		}
		m, err := model.LoadMatcher(*modelPath)
		if err != nil {
			return err
		}
		if !m.Schema.Equal(job.A.Schema) {
			return fmt.Errorf("model %q expects attributes %v, dataset has %v", m.Artifact.Name, m.AttributeNames(), job.A.Schema.Names())
		}
		scheme := m.Scheme
		job.Scheme = &scheme
		job.Scorer = m
		job.ScorerLabel = "model:" + m.Artifact.Name
		if job.Threshold < 0 {
			job.Threshold = m.Artifact.Threshold
		}
	} else if job.Threshold < 0 {
		job.Threshold = 0.85
	}

	tr := obs.New("query")
	job.Span, job.Metrics = tr.Root(), tr.Metrics()
	logger, closeLog, err := obs.OpenLogger(*logOut, *logLevel, tr)
	if err != nil {
		return err
	}
	// One trace per run: every event this run emits correlates to it.
	runCtx := obs.ContextWithTrace(context.Background(), obs.NewTraceContext())

	planSpan := job.Span.Child("plan")
	plan, err := query.PlanJob(job)
	planSpan.End()
	if err != nil {
		return err
	}
	logger.LogAttrs(runCtx, slog.LevelInfo, "query.plan",
		slog.String("scorer", plan.Scorer),
		slog.Float64("threshold", job.Threshold))

	out := io.Writer(os.Stdout)
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}

	if *explain {
		if _, err := io.WriteString(out, plan.Explain()); err != nil {
			return err
		}
		return finish(closeLog, tr, *metricsOut)
	}

	res, err := query.Execute(runCtx, job, plan)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "query: %d candidates, %d matches at threshold %v\n",
		res.Candidates, res.Kept, job.Threshold)
	logger.LogAttrs(runCtx, slog.LevelInfo, "query.done",
		slog.Int("candidates", res.Candidates),
		slog.Int("matches", res.Kept))

	if *format == "csv" {
		if err := writeCSV(out, res); err != nil {
			return err
		}
	} else if err := writeJSON(out, plan, res, job.Threshold); err != nil {
		return err
	}
	return finish(closeLog, tr, *metricsOut)
}

// finish flushes the structured log and writes the run report.
func finish(closeLog func() error, tr *obs.Tracer, metricsOut string) error {
	if err := closeLog(); err != nil {
		return err
	}
	return writeReport(metricsOut, tr)
}

// lookupBuiltin resolves a dataset key case-insensitively.
func lookupBuiltin(key string) (datagen.Builtin, bool) {
	if b, ok := datagen.BuiltinByKey(key); ok {
		return b, true
	}
	for _, b := range datagen.Builtins() {
		if strings.EqualFold(b.Key, key) {
			return b, true
		}
	}
	return datagen.Builtin{}, false
}

// baseName derives a database name from a CSV path.
func baseName(path string) string {
	base := path
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	return strings.TrimSuffix(base, ".csv")
}

func writeJSON(w io.Writer, plan *query.Plan, res *query.Result, threshold float64) error {
	doc := Document{
		Schema:     query.PlanSchemaVersion,
		DatasetA:   plan.NameA,
		SelfJoin:   plan.SelfJoin,
		Strategy:   query.BlockStrategy,
		Scorer:     plan.Scorer,
		Threshold:  threshold,
		Candidates: res.Candidates,
		Count:      res.Kept,
		Matches:    make([]Match, len(res.Matches)),
		Plan:       plan.Explain(),
	}
	if !plan.SelfJoin {
		doc.DatasetB = plan.NameB
	}
	for i, m := range res.Matches {
		doc.Matches[i] = Match{A: m.A, B: m.B, IDA: m.IDA, IDB: m.IDB, Score: m.Score}
	}
	return writeIndentedJSON(w, doc)
}

func writeIndentedJSON(w io.Writer, doc Document) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

func writeCSV(w io.Writer, res *query.Result) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"a", "b", "id_a", "id_b", "score"}); err != nil {
		return err
	}
	for _, m := range res.Matches {
		row := []string{
			strconv.Itoa(m.A), strconv.Itoa(m.B), m.IDA, m.IDB,
			strconv.FormatFloat(m.Score, 'f', 6, 64),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func writeReport(path string, tr *obs.Tracer) error {
	if path == "" {
		return nil
	}
	report := obs.BuildReport("query", os.Args[1:], tr)
	return report.WriteFile(path)
}
