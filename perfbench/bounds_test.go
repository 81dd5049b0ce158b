package main

import (
	"math"
	"testing"

	"gridcma/internal/etc"
	"gridcma/internal/rng"
	"gridcma/internal/schedule"
)

func instance(t *testing.T, rows [][]float64) *etc.Instance {
	t.Helper()
	in := etc.New("hand", len(rows), len(rows[0]))
	for j, row := range rows {
		for m, v := range row {
			in.Set(j, m, v)
		}
	}
	in.Finalize()
	return in
}

func TestLowerBounds(t *testing.T) {
	for _, tc := range []struct {
		name   string
		rows   [][]float64
		mk, fl float64
	}{
		// Fastest times 4, 1, 10: the longest job binds (10 > 15/2).
		{"longest job", [][]float64{{4, 6}, {3, 1}, {10, 12}}, 10, 15},
		// Fastest times 4, 3, 4: the shared work binds (11/2 > 4).
		{"shared work", [][]float64{{4, 6}, {3, 5}, {5, 4}}, 5.5, 11},
	} {
		in := instance(t, tc.rows)
		mk, fl := lowerBounds(in)
		if mk != tc.mk || fl != tc.fl {
			t.Errorf("%s: bounds %v/%v, want %v/%v", tc.name, mk, fl, tc.mk, tc.fl)
		}
		// Every schedule respects them.
		r := rng.New(1)
		for k := 0; k < 200; k++ {
			st := schedule.NewState(in, schedule.NewRandom(in, r))
			if st.Makespan() < mk-1e-9 || st.Flowtime() < fl-1e-9 {
				t.Fatalf("%s: schedule %v beats the bounds: %v/%v", tc.name, st.Schedule(), st.Makespan(), st.Flowtime())
			}
		}
	}
}

func TestBraunTargetsCoverTheSuite(t *testing.T) {
	for _, c := range etc.AllClasses() {
		if m := braunTargets[c.Name(0)]; !(m > 1) || math.IsInf(m, 0) {
			t.Errorf("%s: target multiple %v", c.Name(0), m)
		}
	}
}
