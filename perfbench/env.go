package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Environment diagnostics are recorded with every run and never gated:
// they let a slow machine be told apart from a slow change.

// stealSeconds reads the cumulative CPU steal time from /proc/stat
// (USER_HZ = 100 ticks per second on Linux); -1 when unavailable.
func stealSeconds() float64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return -1
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) > 8 && fields[0] == "cpu" {
			ticks, err := strconv.ParseFloat(fields[8], 64)
			if err != nil {
				return -1
			}
			return ticks / 100
		}
	}
	return -1
}

// calibrate times a fixed integer loop: the same work on every machine
// and commit, so its time tracks the machine's speed alone.
func calibrate() time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 50_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibrationSink = x
	return time.Since(start)
}

var calibrationSink uint64

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// memDelta is the allocation and GC activity between two points.
type memDelta struct {
	allocMB float64
	gcs     uint32
}

func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func deltaOf(before, after runtime.MemStats) memDelta {
	return memDelta{
		allocMB: float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		gcs:     after.NumGC - before.NumGC,
	}
}

// diagnostics is the per-run environment record.
type diagnostics struct {
	StealS        float64 `json:"steal_s"`
	CalibrationMS float64 `json:"calibration_ms"`
	NumCPU        int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	GoVersion     string  `json:"go_version"`
}
