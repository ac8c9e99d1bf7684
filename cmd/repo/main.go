// Command repo manages a model repository: a content-addressed catalog
// of transer.model/v1 artifacts (internal/repo) searchable by domain
// signature, from which cmd/serve picks source models for new
// unlabelled target domains.
//
// Usage:
//
//	repo add -dir models/ model.json [more.json ...]   catalogue artifacts
//	repo list -dir models/                             list the catalog
//	repo sign -a a.csv [-b b.csv]                      compute a domain signature
//	repo sign -dataset DBLP-ACM -scale 0.25            ... of a builtin pair
//	repo search -dir models/ -dataset MB               rank models against a target
//	repo select -dir models/ -a a.csv -b b.csv -k 2    pick a model / ensemble
//	repo evict -dir models/ <fingerprint|name>         remove a model
//	repo bench [-scale 0.1] [-metrics-out report.json] repository benchmark
//
// The catalog directory holds one artifact file per model under
// models/<fingerprint>.json plus an atomically swapped index.json
// cache; deleting the index loses nothing (it is rebuilt by scanning
// the artifacts). Targets for search/select come as CSV files (-a/-b,
// cmd/datagen format), a builtin dataset pair (-dataset/-scale), or a
// precomputed transer.signature/v1 document (-signature, as written by
// repo sign). All output is JSON on stdout; rankings are deterministic
// for every -workers value.
//
// repo select prints the chosen selector ("fp" or "fp@w,fp@w"),
// directly usable as the model= parameter of cmd/serve's scoring
// endpoints.
//
// repo bench measures the three repository cost centres — signature
// build per builtin dataset, search latency against synthetic catalogs
// of growing size, and ensemble-vs-single scoring overhead — and
// writes a transer.obs.report/v1 run report (-metrics-out) for
// cmd/benchreport to condense.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	transer "transer"
	"transer/internal/blocking"
	"transer/internal/datagen"
	"transer/internal/dataset"
	"transer/internal/ml"
	"transer/internal/model"
	"transer/internal/obs"
	"transer/internal/repo"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "repo:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return errors.New("usage: repo <add|list|sign|search|select|evict|bench> [flags]")
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "add":
		return runAdd(rest)
	case "list":
		return runList(rest)
	case "sign":
		return runSign(rest)
	case "search":
		return runSearch(rest, false)
	case "select":
		return runSearch(rest, true)
	case "evict":
		return runEvict(rest)
	case "bench":
		return runBench(rest)
	default:
		return fmt.Errorf("unknown command %q (want add, list, sign, search, select, evict or bench)", cmd)
	}
}

// targetFlags are the shared flags describing a target domain for
// sign, search and select.
type targetFlags struct {
	aPath, bPath string
	datasetKey   string
	scale        float64
	sigPath      string
	workers      int
}

func (t *targetFlags) register(fs *flag.FlagSet, withSig bool) {
	fs.StringVar(&t.aPath, "a", "", "A-side CSV file (cmd/datagen format)")
	fs.StringVar(&t.bPath, "b", "", "B-side CSV file; omitted = dedup view of A")
	fs.StringVar(&t.datasetKey, "dataset", "", "built-in dataset pair key (see cmd/datagen)")
	fs.Float64Var(&t.scale, "scale", 0.25, "size scale factor for -dataset")
	if withSig {
		fs.StringVar(&t.sigPath, "signature", "", "precomputed transer.signature/v1 `file` (from repo sign)")
	}
	fs.IntVar(&t.workers, "workers", 0, "worker pool size (0 = one per CPU; output identical for any value)")
}

// signature resolves the flags to the target domain's signature.
func (t *targetFlags) signature(ctx context.Context) (*model.Signature, error) {
	set := 0
	for _, on := range []bool{t.aPath != "", t.datasetKey != "", t.sigPath != ""} {
		if on {
			set++
		}
	}
	if set != 1 {
		return nil, errors.New("need exactly one target: -a file.csv, -dataset KEY, or -signature sig.json")
	}
	switch {
	case t.sigPath != "":
		b, err := os.ReadFile(t.sigPath)
		if err != nil {
			return nil, err
		}
		var sig model.Signature
		if err := json.Unmarshal(b, &sig); err != nil {
			return nil, fmt.Errorf("%s: %w", t.sigPath, err)
		}
		if err := sig.Validate(); err != nil {
			return nil, fmt.Errorf("%s: %w", t.sigPath, err)
		}
		return &sig, nil
	case t.datasetKey != "":
		builtin, ok := datagen.BuiltinByKey(t.datasetKey)
		if !ok {
			return nil, fmt.Errorf("unknown dataset %q (see cmd/datagen for the keys)", t.datasetKey)
		}
		pair := builtin.Make(t.scale)
		return repo.SignatureOf(ctx, pair.A, pair.B, pair.Blocking, t.workers)
	default:
		a, err := dataset.ReadCSVFile(t.aPath, baseName(t.aPath))
		if err != nil {
			return nil, err
		}
		var b *dataset.Database
		if t.bPath != "" {
			if b, err = dataset.ReadCSVFile(t.bPath, baseName(t.bPath)); err != nil {
				return nil, err
			}
		}
		return repo.SignatureOf(ctx, a, b, blocking.MinHashConfig{}, t.workers)
	}
}

func baseName(path string) string {
	base := path
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	return strings.TrimSuffix(base, ".csv")
}

// openCatalog opens -dir, treating "invalid artifacts skipped" as a
// warning (the valid remainder is served) but a nil catalog as fatal.
func openCatalog(dir string) (*repo.Catalog, error) {
	if dir == "" {
		return nil, errors.New("missing required flag -dir")
	}
	c, err := repo.Open(dir)
	if err != nil {
		if c == nil {
			return nil, err
		}
		fmt.Fprintln(os.Stderr, "repo:", err)
	}
	return c, nil
}

func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func runAdd(args []string) error {
	fs := flag.NewFlagSet("repo add", flag.ExitOnError)
	dir := fs.String("dir", "", "catalog `directory`")
	fs.Parse(args)
	if fs.NArg() == 0 {
		return errors.New("usage: repo add -dir DIR artifact.json [more.json ...]")
	}
	c, err := openCatalog(*dir)
	if err != nil {
		return err
	}
	var added []repo.Entry
	for _, path := range fs.Args() {
		e, err := c.AddFile(path)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		added = append(added, e)
		fmt.Fprintf(os.Stderr, "repo: added %s (%s)\n", e.Name, e.Fingerprint[:12])
	}
	return printJSON(struct {
		Schema string       `json:"schema"`
		Added  []repo.Entry `json:"added"`
	}{repo.IndexSchemaVersion, added})
}

func runList(args []string) error {
	fs := flag.NewFlagSet("repo list", flag.ExitOnError)
	dir := fs.String("dir", "", "catalog `directory`")
	fs.Parse(args)
	c, err := openCatalog(*dir)
	if err != nil {
		return err
	}
	return printJSON(struct {
		Schema string       `json:"schema"`
		Models []repo.Entry `json:"models"`
	}{repo.IndexSchemaVersion, c.List()})
}

func runSign(args []string) error {
	fs := flag.NewFlagSet("repo sign", flag.ExitOnError)
	var tf targetFlags
	tf.register(fs, false)
	out := fs.String("out", "", "write the signature to `file` (default stdout)")
	fs.Parse(args)
	sig, err := tf.signature(context.Background())
	if err != nil {
		return err
	}
	if *out != "" {
		b, err := json.MarshalIndent(sig, "", "  ")
		if err != nil {
			return err
		}
		b = append(b, '\n')
		return model.AtomicWriteFile(*out, func(w io.Writer) error {
			_, err := w.Write(b)
			return err
		})
	}
	return printJSON(sig)
}

// SearchDocument is the JSON output of repo search / repo select.
type SearchDocument struct {
	Schema string `json:"schema"`
	// Selector is the chosen model selector (select only): "fp" or
	// "fp@w,fp@w", directly usable as cmd/serve's model= parameter.
	Selector string        `json:"selector,omitempty"`
	Members  []repo.Member `json:"members,omitempty"`
	Ranking  []repo.Ranked `json:"ranking"`
}

func runSearch(args []string, selecting bool) error {
	name := "repo search"
	if selecting {
		name = "repo select"
	}
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	dir := fs.String("dir", "", "catalog `directory`")
	limit := fs.Int("limit", 0, "cap the ranking (0 = all)")
	k := fs.Int("k", 1, "ensemble size for select (1 = single best model)")
	var tf targetFlags
	tf.register(fs, true)
	fs.Parse(args)
	c, err := openCatalog(*dir)
	if err != nil {
		return err
	}
	sig, err := tf.signature(context.Background())
	if err != nil {
		return err
	}
	ranking := c.Search(sig, *limit, tf.workers)
	doc := SearchDocument{Schema: repo.IndexSchemaVersion, Ranking: ranking}
	if selecting {
		members := repo.Select(ranking, *k)
		if len(members) == 0 {
			return fmt.Errorf("no catalogued model matches the target domain (%d models searched)", c.Len())
		}
		doc.Members = members
		doc.Selector = repo.FormatSelector(members)
		fmt.Fprintf(os.Stderr, "repo: selected %s\n", doc.Selector)
	}
	return printJSON(doc)
}

func runEvict(args []string) error {
	fs := flag.NewFlagSet("repo evict", flag.ExitOnError)
	dir := fs.String("dir", "", "catalog `directory`")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return errors.New("usage: repo evict -dir DIR <fingerprint|prefix|name>")
	}
	c, err := openCatalog(*dir)
	if err != nil {
		return err
	}
	e, err := c.Evict(fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "repo: evicted %s (%s)\n", e.Name, e.Fingerprint[:12])
	return printJSON(struct {
		Schema  string     `json:"schema"`
		Evicted repo.Entry `json:"evicted"`
	}{repo.IndexSchemaVersion, e})
}

// runBench measures the repository's three cost centres under one obs
// run report: signature build per builtin dataset, search latency
// against synthetic catalogs of growing size, and ensemble-vs-single
// scoring overhead on a trained pair of models.
func runBench(args []string) error {
	fs := flag.NewFlagSet("repo bench", flag.ExitOnError)
	scale := fs.Float64("scale", 0.1, "dataset size scale factor")
	sizes := fs.String("sizes", "8,64,256", "comma-separated synthetic catalog sizes for the search sweep")
	iters := fs.Int("iters", 20, "search iterations per catalog size")
	workers := fs.Int("workers", 0, "worker pool size (0 = one per CPU)")
	metricsOut := fs.String("metrics-out", "", "write a JSON run report (spans + metrics) to `file`")
	fs.Parse(args)

	tr := obs.New("repo")
	ctx := context.Background()

	// Phase 1: signature build cost per builtin dataset.
	sigs := make(map[string]*model.Signature)
	for _, b := range datagen.Builtins() {
		pair := b.Make(*scale)
		sp := tr.Root().Child("sign:" + b.Key)
		sig, err := repo.SignatureOf(ctx, pair.A, pair.B, pair.Blocking, *workers)
		if err != nil {
			return err
		}
		sp.SetInt("records", int64(sig.Records))
		sp.SetInt("pairs", int64(sig.Pairs))
		sp.SetInt("centroids", int64(len(sig.Centroids)))
		sp.End()
		sigs[b.Key] = sig
		fmt.Fprintf(os.Stderr, "repo bench: signed %s (%d records, %d pairs)\n", b.Key, sig.Records, sig.Pairs)
	}

	// Phase 2: search latency vs catalog size. Synthetic catalogs
	// replicate the real signatures under distinct fingerprints, so
	// per-entry similarity work matches a catalog of real models.
	target := sigs["DBLP-Scholar"]
	base := datagen.Builtins()
	for _, szStr := range strings.Split(*sizes, ",") {
		var size int
		if _, err := fmt.Sscanf(strings.TrimSpace(szStr), "%d", &size); err != nil || size <= 0 {
			return fmt.Errorf("bad -sizes entry %q", szStr)
		}
		entries := make([]repo.Entry, size)
		for i := range entries {
			b := base[i%len(base)]
			entries[i] = repo.Entry{
				Fingerprint: fmt.Sprintf("%064x", i+1),
				Name:        fmt.Sprintf("%s#%d", b.Key, i),
				Signature:   sigs[b.Key],
			}
		}
		sp := tr.Root().Child(fmt.Sprintf("search:%d", size))
		for it := 0; it < *iters; it++ {
			repo.RankEntries(target, entries, 5, *workers)
		}
		sp.SetInt("catalog_size", int64(size))
		sp.SetInt("iterations", int64(*iters))
		sp.End()
		fmt.Fprintf(os.Stderr, "repo bench: searched catalog of %d, %d iterations\n", size, *iters)
	}

	// Phase 3: ensemble vs single-model serving overhead. Two models
	// trained on the bibliographic pair in both directions share one
	// feature space, so the two-member ensemble is well-formed.
	if err := benchEnsemble(tr, *scale, *workers); err != nil {
		return err
	}

	if *metricsOut != "" {
		report := obs.BuildReport("repo", args, tr)
		if err := report.WriteFile(*metricsOut); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "repo bench: wrote %s\n", *metricsOut)
	}
	return nil
}

// benchEnsemble trains the bibliographic task in both directions,
// catalogues the two artifacts in a temp directory, and scores the
// target compare matrix with the single best model and the two-member
// ensemble, spanning each.
func benchEnsemble(tr *obs.Tracer, scale float64, workers int) error {
	acm := datagen.DBLPACM(scale)
	scholar := datagen.DBLPScholar(scale)

	train := func(src, tgt datagen.DomainPair) (*model.Artifact, *transer.Domain, error) {
		source, err := transer.NewDomain(src.A, src.B, transer.WithName(src.Name), transer.WithBlocking(src.Blocking))
		if err != nil {
			return nil, nil, err
		}
		target, err := transer.NewDomain(tgt.A, tgt.B, transer.WithName(tgt.Name), transer.WithBlocking(tgt.Blocking), transer.WithoutLabels())
		if err != nil {
			return nil, nil, err
		}
		res, err := transer.Transfer(source, target)
		if err != nil {
			return nil, nil, err
		}
		pc, ok := res.Classifier.(ml.ParamClassifier)
		if !ok {
			return nil, nil, fmt.Errorf("classifier %T does not support parameter export", res.Classifier)
		}
		art, err := model.New(src.Name+"→"+tgt.Name, pc, target.A.Schema, target.Scheme)
		if err != nil {
			return nil, nil, err
		}
		art.Provenance.Signature = repo.BuildSignature(target.A, target.B, target.X)
		return art, target, nil
	}

	sp := tr.Root().Child("train:pair")
	artFwd, target, err := train(acm, scholar)
	if err != nil {
		sp.End()
		return err
	}
	artRev, _, err := train(scholar, acm)
	if err != nil {
		sp.End()
		return err
	}
	sp.End()

	dir, err := os.MkdirTemp("", "repo-bench-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	c, err := repo.Open(dir)
	if err != nil {
		return err
	}
	eFwd, err := c.Add(artFwd)
	if err != nil {
		return err
	}
	eRev, err := c.Add(artRev)
	if err != nil {
		return err
	}

	single, err := c.EnsembleFor(eFwd.Fingerprint)
	if err != nil {
		return err
	}
	pairSel := fmt.Sprintf("%s@0.6,%s@0.4", eFwd.Fingerprint, eRev.Fingerprint)
	both, err := c.EnsembleFor(pairSel)
	if err != nil {
		return err
	}

	for _, run := range []struct {
		name string
		e    *repo.Ensemble
	}{{"score:single", single}, {"score:ensemble", both}} {
		sp := tr.Root().Child(run.name)
		p := run.e.Score(target.X, workers)
		sp.SetInt("rows", int64(len(p)))
		sp.SetInt("members", int64(len(run.e.Members())))
		sp.End()
		fmt.Fprintf(os.Stderr, "repo bench: %s scored %d pairs\n", run.name, len(p))
	}
	return nil
}
