package main

import (
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-quantile of xs (0 < p <= 1): the
// smallest sample v such that at least p·n samples are <= v. It sorts a
// copy, so xs is left untouched. An empty slice yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}

// median is the 0.5 nearest-rank percentile.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// geomean returns the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// msOf converts durations to float milliseconds.
func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// mean returns the arithmetic mean (0 for an empty slice).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// cpuTime returns the CPU time the process has used, user and system,
// across all its threads. Unlike wall time it does not grow while the
// host runs other guests on this machine's CPUs (steal time), which on
// the host the benchmark was tuned on varied from a few percent to 40%
// between runs.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB returns the live heap in MB after a GC, once the goroutines
// started since the count was n have ended (waiting at most a second).
// The cMA's parallel engine stops its workers without waiting for them,
// and a worker that has not yet exited still holds the engine's whole
// population: a GC in that moment would count it as live.
func liveHeapMB(n int) float64 {
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
