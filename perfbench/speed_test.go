package main

import (
	"math"
	"testing"
)

// TestScale checks the speed factor: refLoopSeconds over the median of
// the samples between two marks, the last earlier sample when there is
// none between them, and 1 before any sample.
func TestScale(t *testing.T) {
	s := newSpeedometer()
	if got := s.scale(0, 0); got != 1 {
		t.Errorf("no samples: scale %v, want 1", got)
	}
	s.samples = []float64{2 * refLoopSeconds, refLoopSeconds / 2, refLoopSeconds / 4, 4 * refLoopSeconds}
	for _, tc := range []struct {
		from, to int
		want     float64
	}{
		{0, 4, 2},   // nearest-rank median of {1/4, 1/2, 2, 4} × ref is 1/2 × ref
		{0, 2, 2},   // of {1/2, 2} × ref, the lower: 1/2 × ref
		{1, 3, 4},   // of {1/4, 1/2} × ref: 1/4 × ref
		{3, 3, 4},   // none between: the last sample before, 1/4 × ref
		{2, 1, 0.5}, // from after to: the last sample before to, 2 × ref
	} {
		if got := s.scale(tc.from, tc.to); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("scale(%d, %d) = %v, want %v", tc.from, tc.to, got, tc.want)
		}
	}
}

// TestSampleLeavesClockOut checks that the reference loop's time is kept
// out of the speedometer's clock and recorded as a sample.
func TestSampleLeavesClockOut(t *testing.T) {
	s := newSpeedometer()
	wall0, cpu0 := s.clock()
	for i := 0; i < 5; i++ {
		s.sample()
	}
	wall, cpu := s.clock()
	if len(s.samples) != 5 || s.mark() != 5 {
		t.Fatalf("%d samples, mark %d, want 5", len(s.samples), s.mark())
	}
	loop := 0.0
	for _, x := range s.samples {
		if !(x > 0) {
			t.Fatalf("sample %v, want > 0", x)
		}
		loop += x
	}
	// The clock may advance by the bookkeeping around the loop, which is
	// far less than the loop itself.
	if d := (cpu - cpu0).Seconds(); d > loop/2 {
		t.Errorf("CPU clock advanced %v over %v of loop time", d, loop)
	}
	if d := (wall - wall0).Seconds(); d > loop/2 {
		t.Errorf("wall clock advanced %v over %v of loop time", d, loop)
	}
}
