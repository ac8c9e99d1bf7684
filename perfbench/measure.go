package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples a tail percentile must have above
// it before it is reported; with fewer, the percentile is one or two
// outliers and moves from run to run.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs (0 < p ≤
// 100) and how many samples lie beyond it. xs need not be sorted.
func percentile(xs []float64, p float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s) - rank
}

// tailPercentile is percentile for a tail (p > 50): it refuses to report
// a percentile with fewer than minBeyond samples above it.
func tailPercentile(xs []float64, p float64) (float64, error) {
	v, beyond := percentile(xs, p)
	if beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, len(xs), beyond, minBeyond)
	}
	return v, nil
}

// median is the nearest-rank 50th percentile.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 50)
	return v
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// span is one interval recorded by the benchmark around a call into a
// layer. Spans form a tree through parent indices; the benchmark runs
// one closed-loop client, so a span's children are usually sequential,
// but self time is computed from the union of child intervals so that
// overlapping children are never counted twice.
type span struct {
	name       string
	parent     int // index into recorder.spans; -1 for a root
	start, end time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// recorder keeps the benchmark's own spans in memory; nothing is written
// until the run ends. A nil recorder records nothing, so untraced runs
// pay one nil check per call.
type recorder struct {
	spans []span
}

// begin opens a span under parent (-1 for a root) and returns its index.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{name: name, parent: parent, start: time.Now()})
	return len(r.spans) - 1
}

// finish closes span i.
func (r *recorder) finish(i int) {
	if r == nil {
		return
	}
	r.spans[i].end = time.Now()
}

// wrap records fn as one span under parent.
func (r *recorder) wrap(name string, parent int, fn func()) {
	i := r.begin(name, parent)
	fn()
	r.finish(i)
}

// selfTime returns the part of parent's interval that none of its
// children cover.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range children {
		a, b := c.start, c.end
		if a.Before(parent.start) {
			a = parent.start
		}
		if b.After(parent.end) {
			b = parent.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			covered += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.b.Sub(cur.a)
	}
	return parent.dur() - covered
}

// selfTimes sums every span's self time by span name.
func (r *recorder) selfTimes() map[string]time.Duration {
	kids := make([][]span, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	out := map[string]time.Duration{}
	for i, s := range r.spans {
		out[s.name] += selfTime(s, kids[i])
	}
	return out
}

// totals sums span durations by name.
func (r *recorder) totals() map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range r.spans {
		out[s.name] += s.dur()
	}
	return out
}
