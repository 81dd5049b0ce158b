// Package stats provides the small set of descriptive statistics the
// experiment harness reports: mean, standard deviation, min/max, median
// and normal-approximation confidence intervals. The paper reports best
// and averaged makespans over 10 runs and cites the ~1 % standard
// deviation as its robustness evidence, so these are exactly the
// quantities the experiment tables report.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary describes a sample of float64 observations.
type Summary struct {
	N      int
	Mean   float64
	Std    float64 // sample standard deviation (n-1)
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes a Summary of xs. It panics on an empty sample: every
// experiment performs at least one run, so an empty sample is a harness
// bug, not a data condition.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic("stats: empty sample")
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	sum := 0.0
	for _, x := range xs {
		sum += x
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(s.N-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[mid]
	} else {
		s.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return s
}

// RelStd returns the coefficient of variation (std/mean), the "roughly
// 1 %" robustness number of §5.1. It returns 0 for a zero mean.
func (s Summary) RelStd() float64 {
	if s.Mean == 0 {
		return 0
	}
	return s.Std / math.Abs(s.Mean)
}

// CI95 returns the half-width of the normal-approximation 95 % confidence
// interval of the mean.
func (s Summary) CI95() float64 {
	if s.N < 2 {
		return 0
	}
	return 1.96 * s.Std / math.Sqrt(float64(s.N))
}

// String formats the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f std=%.3f (%.2f%%) min=%.3f med=%.3f max=%.3f",
		s.N, s.Mean, s.Std, 100*s.RelStd(), s.Min, s.Median, s.Max)
}

// PercentDelta returns the improvement of got over ref in percent,
// positive when got is lower (better): 100·(ref−got)/ref. It is the Δ(%)
// column of the paper's tables.
func PercentDelta(ref, got float64) float64 {
	if ref == 0 {
		return 0
	}
	return 100 * (ref - got) / ref
}
