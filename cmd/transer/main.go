// Command transer runs the full TransER pipeline on CSV databases:
// block, compare, transfer labels from a labelled source domain to an
// unlabelled target domain, and write the predicted matches.
//
// Usage:
//
//	transer -source-a s1.csv -source-b s2.csv \
//	        -target-a t1.csv -target-b t2.csv \
//	        [-out matches.csv] [-tc 0.9] [-tl 0.9] [-tp 0.9] [-k 7] [-b 3] \
//	        [-seed 0] [-workers 0] \
//	        [-model-out model.json] [-metrics-out report.json] \
//	        [-cpuprofile cpu.pprof] [-memprofile mem.pprof] \
//	        [-exectrace trace.out]
//
// The CSVs use the format produced by cmd/datagen (header
// "id,entity_id,<attr:type>,..."). The source databases must carry
// entity ids (they provide the training labels); target entity ids,
// when present, are used only to print evaluation measures. Predicted
// matches go to -out (default stdout).
//
// -model-out exports the trained target classifier as a
// transer.model/v1 JSON artifact that cmd/serve can load; the served
// model scores pairs byte-identically to this run.
//
// -metrics-out writes a transer.obs.report/v1 JSON run report with
// spans for the source/target domain builds and the TransER run
// (SEL/GEN/TCL phases with classifier fit/predict children).
//
// -workers bounds the worker pool (0 = one per CPU); output is
// byte-identical for every worker count. -seed drives the TCL
// under-sampling and any stochastic classifier.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	transer "transer"
	"transer/internal/dataset"
	"transer/internal/ml"
	"transer/internal/model"
	"transer/internal/obs"
	"transer/internal/parallel"
	"transer/internal/pipeline"
	"transer/internal/repo"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "transer:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		srcA       = flag.String("source-a", "", "source domain database A (CSV)")
		srcB       = flag.String("source-b", "", "source domain database B (CSV)")
		tgtA       = flag.String("target-a", "", "target domain database A (CSV)")
		tgtB       = flag.String("target-b", "", "target domain database B (CSV)")
		out        = flag.String("out", "", "output CSV of predicted matches (default stdout)")
		tc         = flag.Float64("tc", 0.9, "instance confidence threshold t_c")
		tl         = flag.Float64("tl", 0.9, "structural similarity threshold t_l")
		tp         = flag.Float64("tp", 0.9, "pseudo label confidence threshold t_p")
		k          = flag.Int("k", 7, "neighbourhood size")
		b          = flag.Float64("b", 3, "non-match : match balance ratio")
		seed       = flag.Int64("seed", 0, "seed for under-sampling and stochastic classifiers")
		workers    = flag.Int("workers", 0, "worker pool size (0 = one per CPU; results identical for any value)")
		modelOut   = flag.String("model-out", "", "export the trained classifier as a transer.model/v1 artifact to `file`")
		metricsOut = flag.String("metrics-out", "", "write a JSON run report (spans + metrics) to `file`")
		logOut     = flag.String("log-out", "", "write structured JSONL event logs to `file` (\"-\" or \"stderr\" for stderr; empty = logging disabled)")
		logLevel   = flag.String("log-level", "info", "minimum structured log level: debug, info, warn, error")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to `file`")
		memprofile = flag.String("memprofile", "", "write a heap profile to `file` at exit")
		exectrace  = flag.String("exectrace", "", "write a runtime execution trace to `file`")
	)
	flag.Parse()
	for _, req := range []struct{ name, v string }{
		{"-source-a", *srcA}, {"-source-b", *srcB}, {"-target-a", *tgtA}, {"-target-b", *tgtB},
	} {
		if req.v == "" {
			return fmt.Errorf("missing required flag %s", req.name)
		}
	}

	stopProfiles, err := obs.StartProfiles(*cpuprofile, *memprofile, *exectrace)
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "transer:", err)
		}
	}()
	tr := obs.New("transer")
	parallel.RegisterMetrics(tr.Metrics())
	defer parallel.RegisterMetrics(nil)
	lw, err := obs.OpenLogOutput(*logOut)
	if err != nil {
		return err
	}
	var logger *obs.Logger
	if lw != nil {
		lv, err := obs.ParseLevel(*logLevel)
		if err != nil {
			return err
		}
		logger = obs.NewLogger(lw, lv)
		logger.Instrument(tr.Metrics())
	}
	// One trace per training run, correlating its phase events.
	runCtx := obs.ContextWithTrace(context.Background(), obs.NewTraceContext())

	load := func(path, name string) (*transer.Database, error) {
		return dataset.ReadCSVFile(path, name)
	}
	buildDomain := func(role, pathA, pathB string) (*transer.Domain, error) {
		sp := tr.Root().Child("build:" + role)
		defer sp.End()
		a, err := load(pathA, role+"-a")
		if err != nil {
			return nil, err
		}
		b, err := load(pathB, role+"-b")
		if err != nil {
			return nil, err
		}
		d, err := transer.NewDomain(a, b, transer.WithName(role))
		if err != nil {
			return nil, err
		}
		sp.SetInt("candidate_pairs", int64(d.NumPairs()))
		return d, nil
	}
	source, err := buildDomain("source", *srcA, *srcB)
	if err != nil {
		return err
	}
	target, err := buildDomain("target", *tgtA, *tgtB)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "source: %d candidate pairs (%.1f%% labelled matches)\n",
		source.NumPairs(), 100*source.MatchFraction())
	fmt.Fprintf(os.Stderr, "target: %d candidate pairs\n", target.NumPairs())

	cfg := transer.DefaultConfig()
	cfg.TC, cfg.TL, cfg.TP, cfg.K, cfg.B = *tc, *tl, *tp, *k, *b
	cfg.Seed, cfg.Workers = *seed, *workers
	runSpan := tr.Root().Child("transfer")
	cfg.Obs = runSpan
	res, err := transer.Transfer(source, target, transer.WithConfig(cfg))
	runSpan.End()
	if err != nil {
		return err
	}
	st := res.Stats
	fmt.Fprintf(os.Stderr, "SEL kept %d/%d, GEN confident %d, TCL trained %d\n",
		st.Selected, st.SourceInstances, st.HighConfidence, st.BalancedTrain)
	logger.Info(runCtx, "transer.transfer",
		obs.FInt("sel_kept", int64(st.Selected)),
		obs.FInt("source_instances", int64(st.SourceInstances)),
		obs.FInt("gen_confident", int64(st.HighConfidence)),
		obs.FInt("tcl_trained", int64(st.BalancedTrain)))
	if target.Labelled() {
		m := res.Evaluate(target)
		fmt.Fprintf(os.Stderr, "evaluation: P=%.2f R=%.2f F*=%.2f F1=%.2f\n",
			m.Precision, m.Recall, m.FStar, m.F1)
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		if err := writeMatches(f, target, res); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	} else if err := writeMatches(os.Stdout, target, res); err != nil {
		return err
	}

	if *modelOut != "" {
		if err := exportModel(*modelOut, res, source, target, cfg); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "model: wrote %s\n", *modelOut)
	}

	if lw != nil {
		lsp := tr.Root().Child("log:flush")
		err := lw.Close()
		lsp.End()
		if err != nil {
			return fmt.Errorf("log close: %w", err)
		}
	}
	if *metricsOut != "" {
		parallel.PublishStats(tr.Metrics())
		report := obs.BuildReport("transer", os.Args[1:], tr)
		if err := report.WriteFile(*metricsOut); err != nil {
			return err
		}
	}
	return nil
}

// writeMatches renders the predicted matches as CSV, surfacing write
// errors (a full disk must not silently truncate the match set).
func writeMatches(w io.Writer, target *transer.Domain, res *transer.Result) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "a_id,b_id,probability")
	for i, p := range target.Pairs {
		if res.Labels[i] == 1 {
			fmt.Fprintf(bw, "%s,%s,%.4f\n",
				target.A.Records[p.A].ID, target.B.Records[p.B].ID, res.Proba[i])
		}
	}
	return bw.Flush()
}

// exportModel persists the run's trained classifier as a
// transer.model/v1 artifact, stamped with the training configuration
// and content fingerprints of the four input databases.
func exportModel(path string, res *transer.Result, source, target *transer.Domain, cfg transer.Config) error {
	pc, ok := res.Classifier.(ml.ParamClassifier)
	if !ok {
		return fmt.Errorf("classifier %T does not support parameter export", res.Classifier)
	}
	art, err := model.New(source.Name+"→"+target.Name, pc, target.A.Schema, target.Scheme)
	if err != nil {
		return err
	}
	cfg.Obs = nil
	art.Training = model.TrainingFromConfig(cfg)
	st := res.Stats
	art.Provenance = model.Provenance{
		SourceName:     source.Name,
		TargetName:     target.Name,
		SourceA:        pipeline.DataFingerprint(source.A).Hex(),
		SourceB:        pipeline.DataFingerprint(source.B).Hex(),
		TargetA:        pipeline.DataFingerprint(target.A).Hex(),
		TargetB:        pipeline.DataFingerprint(target.B).Hex(),
		SourcePairs:    source.NumPairs(),
		TargetPairs:    target.NumPairs(),
		Selected:       st.Selected,
		HighConfidence: st.HighConfidence,
		BalancedTrain:  st.BalancedTrain,
		TCLFallback:    st.TCLFallback,
		// The target-domain signature makes the artifact searchable in a
		// model repository (cmd/repo, internal/repo) without revisiting
		// the training data.
		Signature: repo.BuildSignature(target.A, target.B, target.X),
	}
	return art.WriteFile(path)
}
