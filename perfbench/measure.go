package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// now reads the host wall clock. Every timing the benchmark reports goes
// through this one read.
func now() time.Time {
	return time.Now() //nolint:notime -- the benchmark measures host wall-clock time; no simulated quantity depends on it
}

// memSample is a snapshot of the runtime's cumulative allocation and GC
// counters.
type memSample struct {
	bytes, mallocs uint64
	gcs            uint32
	pauseNs        uint64
}

func readMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSample{bytes: ms.TotalAlloc, mallocs: ms.Mallocs, gcs: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

// sub returns the counters accumulated between o and m.
func (m memSample) sub(o memSample) memSample {
	return memSample{bytes: m.bytes - o.bytes, mallocs: m.mallocs - o.mallocs, gcs: m.gcs - o.gcs, pauseNs: m.pauseNs - o.pauseNs}
}

// cpuSeconds is the CPU time the process has used, user and system.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (the mean of the two middle values for
// an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest order statistic of xs that still has at least
// ten samples above it, and its percentile. With fewer than 21 samples
// that rank falls below the middle, so the value is clamped to the lower
// median and the percentile says so.
func tail(xs []float64) (value, percentile float64) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := sorted(xs)
	i := len(s) - 11
	if mid := (len(s) - 1) / 2; i < mid {
		i = mid
	}
	return s[i], 100 * float64(i+1) / float64(len(s))
}
