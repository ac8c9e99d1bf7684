package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 0, 100)
	for i := 100; i >= 1; i-- { // unsorted on purpose
		xs = append(xs, float64(i))
	}
	for _, c := range []struct {
		p      float64
		want   float64
		beyond int
	}{
		{50, 50, 50},
		{90, 90, 10},
		{99, 99, 1},
		{100, 100, 0},
		{0.5, 1, 99},
	} {
		got, beyond := percentile(xs, c.p)
		if got != c.want || beyond != c.beyond {
			t.Errorf("p%g = %v with %d beyond, want %v with %d", c.p, got, beyond, c.want, c.beyond)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile reordered its input")
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := tailPercentile(xs, 90); err != nil {
		t.Errorf("p90 of 100 samples has 10 beyond it: %v", err)
	}
	if _, err := tailPercentile(xs[:99], 90); err == nil {
		t.Error("p90 of 99 samples has 9 beyond it and must be refused")
	}
	if _, err := tailPercentile(xs, 99); err == nil {
		t.Error("p99 of 100 samples must be refused")
	}
	if _, err := tailPercentile(append(xs, xs[:48]...), 75); err != nil {
		t.Errorf("p75 of 148 samples: %v", err)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	parent := span{name: "op", start: at(0), end: at(100)}
	for _, c := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"none", nil, 100 * time.Millisecond},
		{"sequential", []span{{start: at(0), end: at(30)}, {start: at(30), end: at(50)}}, 50 * time.Millisecond},
		{"overlapping", []span{{start: at(10), end: at(40)}, {start: at(20), end: at(60)}}, 50 * time.Millisecond},
		{"nested", []span{{start: at(10), end: at(90)}, {start: at(20), end: at(30)}}, 20 * time.Millisecond},
		{"clipped", []span{{start: at(-20), end: at(10)}, {start: at(95), end: at(150)}}, 85 * time.Millisecond},
		{"disjoint", []span{{start: at(60), end: at(70)}, {start: at(10), end: at(20)}}, 80 * time.Millisecond},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %v, want %v", c.name, got, c.want)
		}
	}
}

func TestRecorderSelfTimesByName(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	r := &recorder{spans: []span{
		{name: "op", parent: -1, start: at(0), end: at(100)},
		{name: "block", parent: 0, start: at(0), end: at(40)},
		{name: "compare", parent: 0, start: at(30), end: at(90)},
		{name: "op", parent: -1, start: at(100), end: at(150)},
		{name: "block", parent: 3, start: at(100), end: at(140)},
	}}
	self := r.selfTimes()
	if self["op"] != 20*time.Millisecond {
		t.Errorf("op self time %v, want 20ms", self["op"])
	}
	if tot := r.totals()["block"]; tot != 80*time.Millisecond {
		t.Errorf("block total %v, want 80ms", tot)
	}
	var nilRec *recorder
	nilRec.wrap("x", nilRec.begin("y", -1), func() {})
}

func TestSetupTimerTearsDownBeforeEachSetup(t *testing.T) {
	live, setups, teardowns := 0, 0, 0
	s := &setupTimer{setup: func() (func() error, error) {
		if live != 0 {
			t.Errorf("set-up %d started with %d earlier set-ups live", setups+1, live)
		}
		live++
		setups++
		return func() error {
			live--
			teardowns++
			return nil
		}, nil
	}}
	if err := s.round(0); err != nil {
		t.Fatal(err)
	}
	if live != 1 {
		t.Fatalf("after a round %d set-ups are live, want the last one", live)
	}
	out := newOutcome()
	if err := s.finish(out, 0); err != nil {
		t.Fatal(err)
	}
	if setups != 2*minSetups || teardowns != setups || live != 0 {
		t.Errorf("%d set-ups, %d teardowns, %d live; want %d, %d, 0", setups, teardowns, live, 2*minSetups, 2*minSetups)
	}
	if len(s.times) != setups || !(out.metrics["setup_s"] >= 0) {
		t.Errorf("%d times for %d set-ups, setup_s %v", len(s.times), setups, out.metrics["setup_s"])
	}
}
