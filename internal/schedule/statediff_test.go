package schedule

import (
	"math"
	"testing"

	"gridcma/internal/etc"
	"gridcma/internal/rng"
)

// diffTestInstance builds a small instance; integer ETC values make float
// ties common, so the bit-identity claims are exercised where they are
// hardest.
func diffTestInstance(jobs, machs int, seed uint64) *etc.Instance {
	r := rng.New(seed)
	in := etc.New("diff-test", jobs, machs)
	for j := 0; j < jobs; j++ {
		for m := 0; m < machs; m++ {
			in.Set(j, m, float64(1+r.Intn(40)))
		}
	}
	in.Finalize()
	return in
}

// requireStateEqual compares every value-bearing field of two states bit
// for bit (the epoch is allowed to differ).
func requireStateEqual(t *testing.T, got, want *State) {
	t.Helper()
	if !got.assign.Equal(want.assign) {
		t.Fatalf("assign differs")
	}
	if math.Float64bits(got.Makespan()) != math.Float64bits(want.Makespan()) {
		t.Fatalf("makespan bits differ: %v vs %v", got.Makespan(), want.Makespan())
	}
	if got.MakespanMachine() != want.MakespanMachine() {
		t.Fatalf("makespan machine differs: %d vs %d", got.MakespanMachine(), want.MakespanMachine())
	}
	if math.Float64bits(got.Flowtime()) != math.Float64bits(want.Flowtime()) {
		t.Fatalf("flowtime bits differ: %v vs %v", got.Flowtime(), want.Flowtime())
	}
	for m := range got.machJobs {
		if math.Float64bits(got.completion[m]) != math.Float64bits(want.completion[m]) {
			t.Fatalf("machine %d completion bits differ", m)
		}
		if math.Float64bits(got.machFlow[m]) != math.Float64bits(want.machFlow[m]) {
			t.Fatalf("machine %d flow bits differ", m)
		}
		gj, wj := got.machJobs[m], want.machJobs[m]
		if len(gj) != len(wj) {
			t.Fatalf("machine %d list length differs: %d vs %d", m, len(gj), len(wj))
		}
		for k := range gj {
			if gj[k] != wj[k] {
				t.Fatalf("machine %d slot %d differs: %d vs %d", m, k, gj[k], wj[k])
			}
			if math.Float64bits(got.machCumC[m][k]) != math.Float64bits(want.machCumC[m][k]) {
				t.Fatalf("machine %d cumC[%d] bits differ", m, k)
			}
			if math.Float64bits(got.machCumF[m][k]) != math.Float64bits(want.machCumF[m][k]) {
				t.Fatalf("machine %d cumF[%d] bits differ", m, k)
			}
		}
	}
	for j := range got.slot {
		if got.slot[j] != want.slot[j] {
			t.Fatalf("slot[%d] differs: %d vs %d", j, got.slot[j], want.slot[j])
		}
	}
}

// TestSetScheduleDiffMatchesSetSchedule is the differential pin: applying
// a random sequence of schedule replacements through SetScheduleDiff
// yields exactly the value state SetSchedule produces, including every
// float bit the probes later reuse, across perturbation sizes from one
// job to a full rewrite.
func TestSetScheduleDiffMatchesSetSchedule(t *testing.T) {
	for _, dims := range []struct{ jobs, machs int }{{24, 4}, {96, 8}, {200, 16}} {
		in := diffTestInstance(dims.jobs, dims.machs, uint64(dims.jobs))
		r := rng.New(7)
		cur := NewRandom(in, r)
		diffSt := NewState(in, cur)
		fullSt := NewState(in, cur)
		for step := 0; step < 60; step++ {
			next := diffSt.Schedule()
			switch step % 4 {
			case 0: // single-job change
				next[r.Intn(in.Jobs)] = r.Intn(in.Machs)
			case 1: // small batch, the daemon admission shape
				for k := 0; k < 1+r.Intn(6); k++ {
					next[r.Intn(in.Jobs)] = r.Intn(in.Machs)
				}
			case 2: // no-op replacement
			default: // wholesale rewrite
				for j := range next {
					next[j] = r.Intn(in.Machs)
				}
			}
			diffSt.SetScheduleDiff(next)
			fullSt.SetSchedule(next)
			requireStateEqual(t, diffSt, fullSt)
			// The probe layer reads cumC/cumF and the tree; spot-check a
			// few speculative fitness values bit for bit.
			for k := 0; k < 8; k++ {
				j, to := r.Intn(in.Jobs), r.Intn(in.Machs)
				df := diffSt.FitnessAfterMove(DefaultObjective, j, to)
				ff := fullSt.FitnessAfterMove(DefaultObjective, j, to)
				if math.Float64bits(df) != math.Float64bits(ff) {
					t.Fatalf("FitnessAfterMove(%d,%d) bits differ after diff: %v vs %v", j, to, df, ff)
				}
			}
		}
	}
}

// TestSetScheduleDiffDirtiesOnlyChangedMachines pins the delta contract:
// the diff path refreshes exactly the machines whose job sets changed —
// every other machine's derived data is left as it was, not recomputed —
// and advances the epoch once, or not at all for an empty diff.
func TestSetScheduleDiffDirtiesOnlyChangedMachines(t *testing.T) {
	in := diffTestInstance(60, 6, 3)
	r := rng.New(11)
	st := NewState(in, NewRandom(in, r))

	// Move one job from machine 0 to machine 1.
	const from, to = 0, 1
	j := int(st.JobsOn(from)[0])
	next := st.Schedule()
	next[j] = to
	// Poison every machine's last completion prefix: refreshMachine
	// rewrites it, so after the diff only refreshed machines lose the
	// mark.
	const poison = -1.0
	for _, c := range st.machCumC {
		if len(c) > 0 {
			c[len(c)-1] = poison
		}
	}
	e := st.Epoch()
	st.SetScheduleDiff(next)
	if st.Epoch() != e+1 {
		t.Errorf("diff moved the epoch %d → %d, want one step", e, st.Epoch())
	}
	for m, c := range st.machCumC {
		if len(c) == 0 {
			continue
		}
		refreshed := c[len(c)-1] != poison
		if want := m == from || m == to; refreshed != want {
			t.Errorf("machine %d refreshed=%v, want %v", m, refreshed, want)
		}
	}

	// An empty diff is a no-op: no epoch movement at all.
	e = st.Epoch()
	st.SetScheduleDiff(st.Schedule())
	if st.Epoch() != e {
		t.Errorf("no-op diff moved the state epoch")
	}
}

// TestSetScheduleDiffScanCacheStaysExact runs the scan cache across
// diff-based replacements and checks every query against a cold full
// state — the daemon's admission loop in miniature: batches commit
// through SetScheduleDiff, search queries follow on the live state.
func TestSetScheduleDiffScanCacheStaysExact(t *testing.T) {
	in := diffTestInstance(80, 8, 17)
	r := rng.New(23)
	st := NewState(in, NewRandom(in, r))
	sc := st.Scans(DefaultObjective)
	for step := 0; step < 80; step++ {
		next := st.Schedule()
		for k := 0; k < 1+r.Intn(5); k++ {
			next[r.Intn(in.Jobs)] = r.Intn(in.Machs)
		}
		st.SetScheduleDiff(next)
		v, a, b := sc.BestCriticalSwap()
		ref := NewState(in, st.Schedule())
		rv, ra, rb := ref.Scans(DefaultObjective).BestCriticalSwap()
		if math.Float64bits(v) != math.Float64bits(rv) || a != ra || b != rb {
			t.Fatalf("step %d: cached scan (%v,%d,%d) != cold scan (%v,%d,%d)",
				step, v, a, b, rv, ra, rb)
		}
	}
}

// TestRefreshFlowtime pins the canonicalisation contract: after a long
// Move/Swap sequence, RefreshFlowtime makes the state flowtime bit-equal
// to a freshly rebuilt state's, and bumps the epoch so cached fitness
// contexts recapture.
func TestRefreshFlowtime(t *testing.T) {
	in := diffTestInstance(120, 8, 29)
	r := rng.New(31)
	st := NewState(in, NewRandom(in, r))
	for k := 0; k < 500; k++ {
		if k%2 == 0 {
			st.Move(r.Intn(in.Jobs), r.Intn(in.Machs))
		} else {
			st.Swap(r.Intn(in.Jobs), r.Intn(in.Jobs))
		}
	}
	clean := NewState(in, st.Schedule())
	e := st.Epoch()
	st.RefreshFlowtime()
	if st.Epoch() == e {
		t.Errorf("RefreshFlowtime did not advance the epoch")
	}
	if math.Float64bits(st.Flowtime()) != math.Float64bits(clean.Flowtime()) {
		t.Errorf("flowtime not canonical after refresh: %v vs %v", st.Flowtime(), clean.Flowtime())
	}
}

// TestInvalidateMachine pins the invalidation hook: it advances the
// epoch without touching the state's value, and after the daemon's join
// path — a rewrite of an empty machine's ETC column — the scan cache
// answers what a freshly built state answers.
func TestInvalidateMachine(t *testing.T) {
	in := diffTestInstance(40, 4, 41)
	r := rng.New(43)
	st := NewState(in, NewRandom(in, r))
	m := 2
	// Vacate machine m so the column rewrite cannot disturb list order.
	next := st.Schedule()
	for j := range next {
		if next[j] == m {
			next[j] = (m + 1) % in.Machs
		}
	}
	st.SetScheduleDiff(next)
	sc := st.Scans(DefaultObjective)
	sc.Fitness()
	sc.BestCriticalSwap()

	for j := 0; j < in.Jobs; j++ {
		in.Set(j, m, float64(1+r.Intn(40)))
	}
	e := st.Epoch()
	st.InvalidateMachine(m)
	if st.Epoch() == e {
		t.Fatalf("InvalidateMachine did not advance the epoch")
	}
	ref := NewState(in, st.Schedule())
	requireStateEqual(t, st, ref)
	rsc := ref.Scans(DefaultObjective)
	if got, want := sc.Fitness(), rsc.Fitness(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("fitness %v != fresh %v", got, want)
	}
	v, a, b := sc.BestCriticalSwap()
	rv, ra, rb := rsc.BestCriticalSwap()
	if math.Float64bits(v) != math.Float64bits(rv) || a != ra || b != rb {
		t.Fatalf("query (%v,%d,%d) != fresh (%v,%d,%d)", v, a, b, rv, ra, rb)
	}
	for j := 0; j < in.Jobs; j++ {
		got := sc.FitnessAfterMove(j, m)
		want := rsc.FitnessAfterMove(j, m)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("FitnessAfterMove(%d,%d) %v != fresh %v", j, m, got, want)
		}
	}
}
