package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func TestDigestCheckFailsOnPerturbedOutput(t *testing.T) {
	table := []byte("Table 2: linkage quality\n  DBLP-ACM -> DBLP-Scholar  P  97.12 ± 0.40\n")
	expected := map[string]string{"quality": digestOf(table)}
	if err := checkDigest(expected, "quality", digestOf(table)); err != nil {
		t.Fatalf("unchanged output rejected: %v", err)
	}
	perturbed := bytes.Replace(table, []byte("97.12"), []byte("97.13"), 1)
	if err := checkDigest(expected, "quality", digestOf(perturbed)); err == nil {
		t.Error("a one-digit change passed the digest check")
	}
	if err := checkDigest(expected, "responses", digestOf(table)); err == nil {
		t.Error("a digest with nothing recorded passed")
	}
}

func TestGateSeededAndRepeats(t *testing.T) {
	g := &gate{seed: 7, expected: map[string]string{"seed7.store": "aa", "partition": "pp"}}
	g.seeded("store", "aa")
	g.seeded("responses", "zz") // not recorded for seed 7: printed, not checked
	g.fixed("partition", "pp")
	seen := map[string]string{}
	g.same(seen, "store", "aa")
	g.same(seen, "store", "aa")
	if !g.ok() {
		t.Fatalf("matching outputs failed: %v", g.failures)
	}
	g.same(seen, "store", "ab")
	g.seeded("store", "ac")
	g.fixed("partition", "pq")
	if len(g.failures) != 3 {
		t.Fatalf("want 3 failures (repeat, seeded, fixed), got %v", g.failures)
	}
	var buf bytes.Buffer
	g.writeGate(&buf)
	if !strings.Contains(buf.String(), "seed7.responses zz") {
		t.Errorf("unrecorded digest not printed:\n%s", buf.String())
	}
}

func TestDigestPartitionIgnoresNumbering(t *testing.T) {
	a := map[uint64][]string{1: {"r1", "r3"}, 2: {"r2"}}
	b := map[uint64][]string{9: {"r2"}, 4: {"r3", "r1"}}
	if digestPartition(a) != digestPartition(b) {
		t.Error("the same partition under other entity IDs digests differently")
	}
	c := map[uint64][]string{1: {"r1"}, 2: {"r2", "r3"}}
	if digestPartition(a) == digestPartition(c) {
		t.Error("different partitions digest alike")
	}
}

func TestExpectedDigestsParse(t *testing.T) {
	for _, w := range []string{"grid", "stream"} {
		g, err := newGate(w, mainSeed)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{mainSeed, heldOutSeed} {
			prefix := "seed" + strconv.FormatInt(seed, 10) + "."
			found := false
			for k := range g.expected {
				found = found || strings.HasPrefix(k, prefix)
			}
			if !found {
				t.Errorf("%s: no digests recorded for seed %d", w, seed)
			}
		}
	}
}
