package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"math"
	"sort"
	"strconv"

	"transer/internal/dataset"
)

// The expected digests. Keys without a seed prefix hold outputs that do
// not depend on the workload seed and are checked on every run; keys
// "seed<n>.<name>" hold seed-dependent outputs recorded for the main
// seed (1) and one held-out seed (2). Runs with any other seed check the
// seed-independent digests plus the workload's invariants (determinism
// across repeated ops, zero failed ops) and print their own digests.
//
//go:embed expected.json
var expectedJSON []byte

// Recording seeds: the main seed and one held-out seed.
const (
	mainSeed    = 1
	heldOutSeed = 2
)

// gate collects one run's correctness checks. It never runs inside a
// timed section.
type gate struct {
	seed     int64
	expected map[string]string
	got      []string // "key digest" lines, in check order
	failures []string
}

func newGate(workload string, seed int64) (*gate, error) {
	var all map[string]map[string]string
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &gate{seed: seed, expected: all[workload]}, nil
}

// fail records a failed check.
func (g *gate) fail(format string, args ...any) {
	g.failures = append(g.failures, fmt.Sprintf(format, args...))
}

// require records a failure unless ok holds.
func (g *gate) require(ok bool, format string, args ...any) {
	if !ok {
		g.fail(format, args...)
	}
}

// fixed checks a digest that must be the same for every seed.
func (g *gate) fixed(key, got string) {
	g.got = append(g.got, key+" "+got)
	if err := checkDigest(g.expected, key, got); err != nil {
		g.fail("%v", err)
	}
}

// seeded checks a seed-dependent digest where one is recorded for this
// run's seed.
func (g *gate) seeded(key, got string) {
	k := "seed" + strconv.FormatInt(g.seed, 10) + "." + key
	g.got = append(g.got, k+" "+got)
	if _, ok := g.expected[k]; ok {
		if err := checkDigest(g.expected, k, got); err != nil {
			g.fail("%v", err)
		}
	}
}

// same checks that repeated ops agree: the first value seen under key
// is the reference for every later one.
func (g *gate) same(seen map[string]string, key, got string) {
	if prev, ok := seen[key]; ok {
		g.require(prev == got, "%s: repeated op gave %s, first gave %s", key, got, prev)
		return
	}
	seen[key] = got
}

func (g *gate) ok() bool { return len(g.failures) == 0 }

// checkDigest compares got with the recorded digest under key.
func checkDigest(expected map[string]string, key, got string) error {
	want, ok := expected[key]
	if !ok {
		return fmt.Errorf("%s: no expected digest recorded (got %s)", key, got)
	}
	if want != got {
		return fmt.Errorf("%s: digest %s, expected %s", key, got, want)
	}
	return nil
}

// digester hashes a sequence of typed values, each length-prefixed so
// that different splits of the same bytes hash differently.
type digester struct{ h hash.Hash }

func newDigester() digester { return digester{h: sha256.New()} }

func (d digester) u64(v uint64) {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	d.h.Write(b[:])
}

func (d digester) bytes(b []byte) {
	d.u64(uint64(len(b)))
	d.h.Write(b)
}

func (d digester) str(s string) { d.bytes([]byte(s)) }

func (d digester) f64(v float64) { d.u64(math.Float64bits(v)) }

func (d digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// digestOf hashes one byte string.
func digestOf(b []byte) string {
	d := newDigester()
	d.bytes(b)
	return d.sum()
}

// digestDomain adds one built domain (candidate pairs, feature matrix
// bit patterns, labels) to d.
func digestDomain(d digester, pairs []dataset.Pair, x [][]float64, y []int) {
	d.u64(uint64(len(pairs)))
	for _, p := range pairs {
		d.u64(uint64(p.A))
		d.u64(uint64(p.B))
	}
	for _, row := range x {
		d.u64(uint64(len(row)))
		for _, v := range row {
			d.f64(v)
		}
	}
	d.u64(uint64(len(y)))
	for _, l := range y {
		d.u64(uint64(l))
	}
}

// digestPartition hashes a clustering independently of entity
// numbering and member order: each cluster's sorted member IDs, with
// clusters sorted by their first member.
func digestPartition(part map[uint64][]string) string {
	clusters := make([][]string, 0, len(part))
	for _, members := range part {
		c := append([]string(nil), members...)
		sort.Strings(c)
		clusters = append(clusters, c)
	}
	sort.Slice(clusters, func(i, j int) bool { return clusters[i][0] < clusters[j][0] })
	d := newDigester()
	d.u64(uint64(len(clusters)))
	for _, c := range clusters {
		d.u64(uint64(len(c)))
		for _, id := range c {
			d.str(id)
		}
	}
	return d.sum()
}

// writeGate prints the run's digests, for recording and for diagnosis.
func (g *gate) writeGate(w io.Writer) {
	for _, line := range g.got {
		fmt.Fprintln(w, "perfbench: gate", line)
	}
	for _, f := range g.failures {
		fmt.Fprintln(w, "perfbench: gate FAILED:", f)
	}
}
