// Package testkit is the property-based and metamorphic testing
// harness for the ER/transfer stack. It provides three layers:
//
//   - seeded generators (gen.go) for feature matrices, labels, records
//     and whole transfer domains, with deterministic sub-seed
//     derivation so every trial of every property is independently
//     reproducible from a printed (seed, size) pair;
//
//   - a property runner (this file) that executes a property over many
//     sized trials and, on failure, shrinks by size: it re-runs the
//     failing seed at increasing sizes from the minimum and reports
//     the smallest size that still fails;
//
//   - a metamorphic-relation runner (relations.go) that generates a
//     test case, derives a follow-up case by a semantic transformation
//     (row permutation, duplication, label corruption, feature
//     scaling), runs the system under test on both, and asserts the
//     required relationship between the two outputs.
//
// The differential oracle that cross-checks TransER and the transfer
// baselines against reference invariants lives in the sub-package
// oracle, which may import internal/core and internal/transfer;
// testkit itself depends only on the stdlib and internal/dataset so
// that in-package tests of the model packages can use it without
// import cycles.
package testkit

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"transer/internal/seeded"
)

// Trial sizing: sizes ramp linearly from MinSize to MaxSize across the
// trials of one Run, so early trials are cheap and later trials
// exercise larger structures. Properties interpret Size as their own
// scale knob (rows of a matrix, entities of a domain).
const (
	// MinSize is the smallest trial size and the floor of shrinking.
	MinSize = 4
	// MaxSize is the size of the last trial.
	MaxSize = 48
)

// SubSeed derives a deterministic child seed from a parent seed and a
// label. Distinct labels yield statistically unrelated streams (the
// label is FNV-1a hashed and the combination is finalised with a
// splitmix64 mix), so generators can split one trial seed into
// independent per-structure seeds without correlation artefacts.
func SubSeed(seed int64, label string) int64 {
	const (
		fnvOffset = 0xcbf29ce484222325
		fnvPrime  = 0x100000001b3
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= fnvPrime
	}
	return int64(mix64(uint64(seed) + h))
}

// mix64 is the splitmix64 finaliser.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// T is the state handed to a property for one trial: a seeded random
// source, the trial size, and failure recording. It deliberately
// mirrors the testing.TB surface the suites need (Errorf, Fatalf,
// Logf) without embedding testing.TB, so a failing trial can be
// re-executed at smaller sizes during shrinking without failing the
// real test until the minimal counterexample is known.
type T struct {
	// Rng is the trial's random source. Properties must draw all
	// randomness from it (or from SubSeed(t.Seed, ...)) so the trial
	// replays exactly from (Seed, Size).
	Rng *rand.Rand
	// Seed is the trial seed, printed on failure.
	Seed int64
	// Size is the trial size in [MinSize, MaxSize].
	Size int

	failed  bool
	stopped bool
	log     []string
}

// failNow aborts the trial body via panic; recovered by runTrial.
type failNow struct{}

// Errorf records a failure and continues the trial.
func (t *T) Errorf(format string, args ...interface{}) {
	t.failed = true
	t.log = append(t.log, fmt.Sprintf(format, args...))
}

// Fatalf records a failure and aborts the trial.
func (t *T) Fatalf(format string, args ...interface{}) {
	t.Errorf(format, args...)
	t.FailNow()
}

// FailNow aborts the trial immediately.
func (t *T) FailNow() {
	t.failed = true
	t.stopped = true
	panic(failNow{})
}

// Logf records a message that is reported only if the trial fails.
func (t *T) Logf(format string, args ...interface{}) {
	t.log = append(t.log, fmt.Sprintf(format, args...))
}

// Failed reports whether the trial has recorded a failure.
func (t *T) Failed() bool { return t.failed }

// runTrial executes prop once with a fresh T and returns it.
func runTrial(seed int64, size int, prop func(*T)) (trial *T) {
	trial = &T{
		Rng:  seeded.New(seed),
		Seed: seed,
		Size: size,
	}
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(failNow); !ok {
				trial.failed = true
				trial.log = append(trial.log, fmt.Sprintf("panic: %v", r))
			}
		}
	}()
	prop(trial)
	return trial
}

// Run executes the property over trials sized from MinSize to MaxSize,
// with trial seeds derived from the property name. On the first
// failing trial it shrinks by size — re-running the same seed from
// MinSize upwards and keeping the smallest size that still fails —
// then reports the property name, seed and minimal size so the
// counterexample can be replayed with Repro.
func Run(tb testing.TB, name string, trials int, prop func(*T)) {
	tb.Helper()
	if trials < 1 {
		trials = 1
	}
	base := SubSeed(0, "testkit:"+name)
	for i := 0; i < trials; i++ {
		seed := SubSeed(base, fmt.Sprintf("trial:%d", i))
		size := MinSize
		if trials > 1 {
			size += (MaxSize - MinSize) * i / (trials - 1)
		}
		trial := runTrial(seed, size, prop)
		if !trial.failed {
			continue
		}
		// Sized shrinking: find the smallest size at which this seed
		// still violates the property.
		minFail := trial
		minSize := size
		for s := MinSize; s < size; s++ {
			if shrunk := runTrial(seed, s, prop); shrunk.failed {
				minFail, minSize = shrunk, s
				break
			}
		}
		tb.Errorf("property %q failed at trial %d (seed=%d size=%d, shrunk from %d):\n%s",
			name, i, seed, minSize, size, strings.Join(minFail.log, "\n"))
		return
	}
}

// Repro replays a single (seed, size) counterexample reported by Run,
// failing tb with the trial's log if the property still fails.
func Repro(tb testing.TB, seed int64, size int, prop func(*T)) {
	tb.Helper()
	if trial := runTrial(seed, size, prop); trial.failed {
		tb.Errorf("property failed (seed=%d size=%d):\n%s",
			seed, size, strings.Join(trial.log, "\n"))
	}
}
