package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The host the benchmark was tuned on changes speed by tens of percent
// within a minute: the CPU time of a fixed cMA run went from 100 to
// 170 ms over 40 seconds, and jumped by 40% between two processes
// started 15 seconds apart, with nothing else running in the guest. CPU
// time does not hide that, because the slowdown comes from the host
// (clock rate, shared caches, sibling threads), not from waiting. So the
// benchmark measures the host's speed as it goes, with a fixed reference
// loop run between pieces of work, and scales each piece's CPU time to
// what it would have taken at the reference speed. Of the loops tried
// (working sets of 32 KiB, 256 KiB, 1 MiB and 4 MiB), the 256 KiB one
// tracked the cMA best: over six 15-second processes the cMA's median
// CPU time ranged over 27 to 40 ms, its ratio to that loop's over 66 to
// 72, and within a process the scaled time of 0.6-second windows spread
// about half as much as the raw time.

// refLoopSteps is the length of one run of the reference loop.
const refLoopSteps = 1 << 17

// refLoopSeconds is the CPU time of one reference loop run at the
// reference speed: the median on the host the benchmark was tuned on
// (2 vCPUs, x86-64). Scaled times are raw times × refLoopSeconds / the
// median loop time measured beside them.
const refLoopSeconds = 0.00045

// sampleEvery is the least wall time between two runs of the reference
// loop taken by tick. The loop costs refLoopSeconds, so it takes about
// 5% of a run; the program then refills its caches, which costs it well
// under 1%.
const sampleEvery = 10 * time.Millisecond

// refTable is the reference loop's working set, 256 KiB: the size of a
// second-level cache, between the cMA's 512×16 and 2048×64 instances.
var refTable [1 << 15]float64

var refSink float64

// refLoop is the reference work: xorshift-indexed reads and writes of
// refTable with a data-dependent branch, a mix of integer, floating-point
// and load/store work like the program's. It resets the table first, so
// every run does the same work.
func refLoop() {
	for i := range refTable {
		refTable[i] = float64(i)
	}
	x := uint64(88172645463325252)
	s := 0.0
	for i := 0; i < refLoopSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & uint64(len(refTable)-1)
		v := refTable[j]
		if v > s*0.5 {
			s += v * 1e-9
		} else {
			s -= v * 1e-9
		}
		refTable[j] = v + 1
	}
	refSink = s
}

// speedometer runs the reference loop between pieces of a workload and
// keeps the workload's own clocks free of it.
type speedometer struct {
	start     time.Time
	loopCPU   time.Duration // thread CPU time spent in the loop
	loopWall  time.Duration // wall time spent in the loop
	samples   []float64     // CPU seconds of each loop run
	lastEnded time.Time
}

func newSpeedometer() *speedometer {
	now := time.Now()
	return &speedometer{start: now, lastEnded: now}
}

// clock returns the wall time since the speedometer started and the
// process CPU time, both less the time spent in the reference loop.
func (s *speedometer) clock() (wall, cpu time.Duration) {
	return time.Since(s.start) - s.loopWall, cpuTime() - s.loopCPU
}

// sample runs the reference loop once, on a thread of its own so that
// its CPU time is its own even while other goroutines run.
func (s *speedometer) sample() {
	runtime.LockOSThread()
	t0, c0 := time.Now(), threadCPUTime()
	refLoop()
	c := threadCPUTime() - c0
	s.lastEnded = time.Now()
	runtime.UnlockOSThread()
	s.loopCPU += c
	s.loopWall += s.lastEnded.Sub(t0)
	s.samples = append(s.samples, c.Seconds())
}

// tick samples when sampleEvery has passed since the last sample.
func (s *speedometer) tick() {
	if time.Since(s.lastEnded) >= sampleEvery {
		s.sample()
	}
}

// mark returns the number of samples taken so far; two marks delimit
// the samples of a piece of work.
func (s *speedometer) mark() int { return len(s.samples) }

// scale returns the factor that turns CPU time measured between marks
// from and to into CPU time at the reference speed: refLoopSeconds over
// the median loop time of those samples. With no sample between them it
// uses the last sample before to; with none at all, 1.
func (s *speedometer) scale(from, to int) float64 {
	if from >= to {
		if to == 0 {
			return 1
		}
		from = to - 1
	}
	return refLoopSeconds / median(s.samples[from:to])
}

// threadCPUTime returns the CPU time, user and system, of the calling
// OS thread. It reads CLOCK_THREAD_CPUTIME_ID, which counts in
// nanoseconds; getrusage for a thread counts in scheduler ticks here.
func threadCPUTime() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno) // a valid clock and pointer cannot fail on Linux
	}
	return time.Duration(ts.Nano())
}
