package transer

import "testing"

// TestRankSourcesPublicAPI: probing with each builtin re-sampled at
// scale 0.2, the ranker puts the same dataset at scale 0.25 first among
// the builtins of its schema family (those sharing its feature space).
func TestRankSourcesPublicAPI(t *testing.T) {
	st := NewDomainStore()
	keys := DatasetKeys()
	cands := make([]*Domain, len(keys))
	for i, k := range keys {
		d, err := st.Domain(k, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		cands[i] = d
	}
	for _, k := range keys {
		probe, err := st.Domain(k, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		var family []*Domain
		var familyKeys []string
		for i, c := range cands {
			if c.NumFeatures() == probe.NumFeatures() {
				family = append(family, c)
				familyKeys = append(familyKeys, keys[i])
			}
		}
		if len(family) < 2 {
			t.Fatalf("%s: family of %d, want a choice", k, len(family))
		}
		ranking, err := RankSources(family, probe)
		if err != nil {
			t.Fatalf("RankSources(%s): %v", k, err)
		}
		if got := familyKeys[ranking[0].Index]; got != k {
			t.Errorf("probing with %s ranked %s first: %+v", k, got, ranking)
		}
		for j := 1; j < len(ranking); j++ {
			if ranking[j-1].Score < ranking[j].Score {
				t.Errorf("%s: ranking unsorted: %+v", k, ranking)
			}
		}
	}
}

func TestRankSourcesValidation(t *testing.T) {
	src, tgt, err := BuildDomains(tinyTask())
	if err != nil {
		t.Fatal(err)
	}
	unl, err := NewDomain(src.A, src.B, WithoutLabels())
	if err != nil {
		t.Fatal(err)
	}
	narrow := *src
	narrow.X = [][]float64{{1}}
	for name, c := range map[string]struct {
		sources []*Domain
		target  *Domain
	}{
		"no sources":       {nil, tgt},
		"nil target":       {[]*Domain{src}, nil},
		"nil source":       {[]*Domain{src, nil}, tgt},
		"unlabelled":       {[]*Domain{unl}, tgt},
		"feature mismatch": {[]*Domain{&narrow}, tgt},
	} {
		if _, err := RankSources(c.sources, c.target); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// The target needs no labels.
	tgtU, err := NewDomain(tgt.A, tgt.B, WithoutLabels())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RankSources([]*Domain{src}, tgtU); err != nil {
		t.Errorf("unlabelled target rejected: %v", err)
	}
}

func TestTransferMultiSourcePublicAPI(t *testing.T) {
	tasks := PaperTasks(0.05)
	src1, _ := BuildDomain(tasks[2].Source)
	src2, _ := BuildDomain(tasks[2].Target)
	target, _ := BuildDomain(tasks[3].Target)
	res, ranking, err := TransferMultiSource([]*Domain{src1, src2}, target)
	if err != nil {
		t.Fatalf("TransferMultiSource: %v", err)
	}
	if len(res.Labels) != target.NumPairs() {
		t.Errorf("wrong output size")
	}
	if len(ranking) != 2 {
		t.Errorf("missing ranking")
	}
}

func TestTransferSemiSupervisedPublicAPI(t *testing.T) {
	src, tgt, err := BuildDomains(tinyTask())
	if err != nil {
		t.Fatal(err)
	}
	known := TargetLabels{}
	for i := 0; i < tgt.NumPairs(); i += 10 {
		known[i] = tgt.Y[i]
	}
	res, err := TransferSemiSupervised(src, tgt, known)
	if err != nil {
		t.Fatalf("TransferSemiSupervised: %v", err)
	}
	for idx, l := range known {
		if res.Labels[idx] != l {
			t.Fatalf("known label not respected at %d", idx)
		}
	}
	m := res.Evaluate(tgt)
	if m.FStar <= 0 {
		t.Errorf("semi-supervised transfer learned nothing")
	}
	if _, err := TransferSemiSupervised(nil, tgt, known); err == nil {
		t.Errorf("nil source accepted")
	}
}

func TestTransferActivePublicAPI(t *testing.T) {
	src, tgt, err := BuildDomains(tinyTask())
	if err != nil {
		t.Fatal(err)
	}
	oracle := func(i int) int { return tgt.Y[i] }
	res, err := TransferActive(src, tgt, oracle, 20)
	if err != nil {
		t.Fatalf("TransferActive: %v", err)
	}
	if len(res.Queried) == 0 || len(res.Queried) > 20 {
		t.Errorf("queried %d with budget 20", len(res.Queried))
	}
	m := res.Evaluate(tgt)
	if m.FStar <= 0 {
		t.Errorf("active transfer learned nothing")
	}
	if _, err := TransferActive(src, tgt, nil, 20); err == nil {
		t.Errorf("nil oracle accepted")
	}
}

func TestClusterMatchesPublicAPI(t *testing.T) {
	src, tgt, err := BuildDomains(tinyTask())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Transfer(src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	clusters := ClusterMatches(res, tgt)
	predicted := 0
	for _, l := range res.Labels {
		predicted += l
	}
	if predicted > 0 && len(clusters) == 0 {
		t.Errorf("matches predicted but no clusters formed")
	}
	for _, c := range clusters {
		if len(c.A) == 0 || len(c.B) == 0 {
			t.Errorf("cluster without both sides: %+v", c)
		}
	}
}

func TestOneToOneMatchesPublicAPI(t *testing.T) {
	src, tgt, err := BuildDomains(tinyTask())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Transfer(src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	pairs, labels := OneToOneMatches(res, tgt)
	if len(labels) != tgt.NumPairs() {
		t.Fatalf("label vector misaligned")
	}
	seenA := map[int]bool{}
	seenB := map[int]bool{}
	for _, p := range pairs {
		if seenA[p.A] || seenB[p.B] {
			t.Fatalf("one-to-one violated at %v", p)
		}
		seenA[p.A] = true
		seenB[p.B] = true
	}
	// One-to-one can only keep a subset of predicted matches.
	predicted := 0
	for _, l := range res.Labels {
		predicted += l
	}
	if len(pairs) > predicted {
		t.Errorf("kept %d pairs out of %d predicted", len(pairs), predicted)
	}
}

func TestDomainStorePublicAPI(t *testing.T) {
	st := NewDomainStore()
	first, err := st.Domain("DBLP-ACM", 0.04)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Labelled() || first.NumPairs() == 0 {
		t.Fatalf("store returned an unusable domain: %d pairs, labelled=%v",
			first.NumPairs(), first.Labelled())
	}
	second, err := st.Domain("DBLP-ACM", 0.04)
	if err != nil {
		t.Fatal(err)
	}
	if &first.X[0][0] != &second.X[0][0] {
		t.Errorf("second request rebuilt the feature matrix instead of hitting the cache")
	}
	stats := st.Stats()
	if stats.Misses == 0 || stats.Hits == 0 {
		t.Errorf("stats = %+v, want both misses (cold) and hits (warm)", stats)
	}

	// The memoized domains drive the ordinary Transfer flow.
	tgt, err := st.Domain("DBLP-Scholar", 0.04)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Transfer(first, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Labels) != tgt.NumPairs() {
		t.Fatalf("prediction misaligned with target pairs")
	}

	if _, err := st.Domain("no-such-dataset", 0.04); err == nil {
		t.Errorf("unknown dataset key must error")
	}
	keys := DatasetKeys()
	if len(keys) != 8 || keys[0] != "DBLP-ACM" {
		t.Errorf("DatasetKeys() = %v", keys)
	}
}
