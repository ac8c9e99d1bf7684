// Multisource: when several labelled data sets could serve as the
// source domain, rank them by domain-signature similarity to the
// target and transfer from the best — the paper's "choose the best
// source domain" future-work extension. Also demonstrates
// semi-supervised and active-learning transfer, plus one-to-one match
// post-processing.
//
// Run with:
//
//	go run ./examples/multisource
package main

import (
	"flag"
	"fmt"
	"log"

	transer "transer"
)

func main() {
	scale := flag.Float64("scale", 1, "multiplier on the example's data sizes")
	flag.Parse()

	// Target: unlabelled music catalogue pair.
	targetPair := transer.MSD(0.2 * *scale)
	target, err := transer.BuildDomain(targetPair)
	if err != nil {
		log.Fatal(err)
	}

	// Candidate sources: another music pair (semantically close) and a
	// bibliographic pair forced onto a comparable feature space? No —
	// feature spaces must match (homogeneous TL), so candidates are
	// two differently-distributed music sources.
	mb, err := transer.BuildDomain(transer.MB(0.2 * *scale))
	if err != nil {
		log.Fatal(err)
	}
	legacyEntities := int(400 * *scale)
	if legacyEntities < 40 {
		legacyEntities = 40
	}
	msdOld, err := transer.BuildDomain(transer.Generate(transer.GeneratorSpec{
		Name: "msd-legacy", Kind: 1 /* music */, Seed: 777,
		NumEntities: legacyEntities, FracA: 0.8, FracB: 0.8, AmbiguityFrac: 0.05,
	}))
	if err != nil {
		log.Fatal(err)
	}

	ranking, err := transer.RankSources([]*transer.Domain{mb, msdOld}, target)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("source ranking (best first):")
	for _, r := range ranking {
		fmt.Printf("  %-12s score=%.3f (fields %.3f, tokens %.3f, centroids %.3f)\n",
			r.Name, r.Score, r.Components.Fields, r.Components.Tokens, r.Components.Centroids)
	}

	res, ranking, err := transer.TransferMultiSource([]*transer.Domain{mb, msdOld}, target)
	if err != nil {
		log.Fatal(err)
	}
	m := res.Evaluate(target)
	fmt.Printf("\ntransferred from %q: P=%.2f R=%.2f F*=%.2f\n",
		ranking[0].Name, m.Precision, m.Recall, m.FStar)

	// Semi-supervised: suppose 5%% of target pairs were hand-labelled.
	known := transer.TargetLabels{}
	for i := 0; i < target.NumPairs(); i += 20 {
		known[i] = target.Y[i]
	}
	best := []*transer.Domain{mb, msdOld}[ranking[0].Index]
	semi, err := transer.TransferSemiSupervised(best, target, known)
	if err != nil {
		log.Fatal(err)
	}
	sm := semi.Evaluate(target)
	fmt.Printf("with %d known target labels: P=%.2f R=%.2f F*=%.2f\n",
		len(known), sm.Precision, sm.Recall, sm.FStar)

	// Active learning: spend 50 oracle queries on the most uncertain pairs.
	oracle := func(i int) int { return target.Y[i] }
	active, err := transer.TransferActive(best, target, oracle, 50)
	if err != nil {
		log.Fatal(err)
	}
	am := active.Evaluate(target)
	fmt.Printf("after %d active queries: P=%.2f R=%.2f F*=%.2f\n",
		len(active.Queried), am.Precision, am.Recall, am.FStar)

	// Post-process into one-to-one matches and score the cleaned
	// prediction.
	pairs, labels := transer.OneToOneMatches(active.Result, target)
	cleaned := &transer.Result{Labels: labels, Proba: active.Proba}
	cm := cleaned.Evaluate(target)
	fmt.Printf("one-to-one post-processing kept %d of %d predicted matches (P=%.2f R=%.2f F*=%.2f)\n",
		len(pairs), countOnes(active.Labels), cm.Precision, cm.Recall, cm.FStar)
}

func countOnes(labels []int) int {
	n := 0
	for _, l := range labels {
		n += l
	}
	return n
}
