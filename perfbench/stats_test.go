package main

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// TestPercentileMatchesExactSort checks percentile against the
// nearest-rank definition evaluated on a full sort: the result is a
// sample, at least p·n samples are <= it, and fewer than p·n are < it.
func TestPercentileMatchesExactSort(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.IntN(300)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Round(r.NormFloat64()*100) / 10 // ties included
		}
		orig := slices.Clone(xs)
		sorted := slices.Sorted(slices.Values(xs))
		for _, p := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 1} {
			v := percentile(xs, p)
			if !slices.Equal(xs, orig) {
				t.Fatal("percentile modified its input")
			}
			le, lt := 0, 0
			for _, x := range sorted {
				if x <= v {
					le++
				}
				if x < v {
					lt++
				}
			}
			if !slices.Contains(sorted, v) || float64(le) < p*float64(n) || float64(lt) >= p*float64(n) {
				t.Fatalf("n=%d p=%v: percentile %v (<=: %d, <: %d)", n, p, v, le, lt)
			}
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Fatalf("empty percentile = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median = %v, want 2", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Fatalf("geomean = %v, want 4", got)
	}
}
