package schedule

import (
	"fmt"
	"math"
	"testing"

	"gridcma/internal/etc"
	"gridcma/internal/rng"
)

// Differential tests for the scan cache: across thousands of random
// commit sequences the pruned critical-swap query must return, bit for
// bit, the winner of a from-scratch pair scan — value, critical job and
// partner id — including on tie-heavy integer instances where the
// (value, SPT-position, id) tie-break contract actually binds.

// scanInstances mixes generic random instances with tie-heavy integer
// ones (tieInstance lives in sweep_test.go) and one float32-backed
// instance, which routes every scan through the generic kernels.
func scanInstances() []*etc.Instance {
	narrow, err := etc.GenSpec{Jobs: 80, Machs: 7,
		Class: etc.Class{Consistency: etc.Consistent, JobHet: etc.High, MachineHet: etc.High},
		Seed:  86, Float32: true}.Generate()
	if err != nil {
		panic(err)
	}
	return []*etc.Instance{
		etc.Generate(etc.Class{Consistency: etc.Inconsistent, JobHet: etc.High, MachineHet: etc.High},
			0, etc.GenerateOptions{Seed: 81, Jobs: 72, Machs: 9}),
		etc.Generate(etc.Class{Consistency: etc.Consistent, JobHet: etc.Low, MachineHet: etc.High},
			0, etc.GenerateOptions{Seed: 82, Jobs: 90, Machs: 6}),
		tieInstance(60, 8, 83),
		tieInstance(36, 4, 84),
		tieInstance(20, 3, 85),
		narrow,
	}
}

// narrowTwin returns a float32-backed copy of in (entries rounded to
// float32, ready times kept).
func narrowTwin(in *etc.Instance) *etc.Instance {
	out := etc.New32(in.Name+":f32", in.Jobs, in.Machs)
	for j := 0; j < in.Jobs; j++ {
		for m := 0; m < in.Machs; m++ {
			out.Set(j, m, in.At(j, m))
		}
	}
	copy(out.Ready, in.Ready)
	out.Finalize()
	return out
}

// griddInstance mimics the online daemon's live instance: real machines
// with small integer ETCs, a last parking column holding park keys
// (1e-12 × a sequence number) for parked slots, and 1e18 "never go
// there" cells for a parked slot's real machines, a placed slot's
// parking cell and a few blocked placements. Random schedules then mix
// both magnitudes into one machine list, where completions absorb the
// small entries and the staircase's monotone-rounding argument works at
// its edges; the 1e18 cells also tie in bulk.
func griddInstance(jobs, machs int, seed uint64) *etc.Instance {
	in := etc.New("gridd", jobs, machs)
	r := rng.New(seed)
	park := machs - 1
	for j := 0; j < jobs; j++ {
		parked := r.Intn(3) == 0
		for m := 0; m < park; m++ {
			if parked || r.Intn(8) == 0 {
				in.Set(j, m, 1e18)
			} else {
				in.Set(j, m, float64(1+r.Intn(400)))
			}
		}
		if parked {
			in.Set(j, park, float64(1+r.Intn(jobs))*1e-12)
		} else {
			in.Set(j, park, 1e18)
		}
	}
	for m := 0; m < park; m++ {
		in.Ready[m] = float64(r.Intn(1000))
	}
	in.Finalize()
	return in
}

// refCriticalSwap is the reference query: every (critical job, partner)
// pair through the scalar CompletionAfterSwap query, partners in
// ascending id order, folded with the historical strict-< across critical
// jobs in SPT order. Exempt machines (SetScanExempt) take part on
// neither side, as the query's contract says.
func refCriticalSwap(st *State) (float64, int, int) {
	exempt := func(m int) bool { return st.scanExempt != nil && st.scanExempt[m] }
	crit := st.MakespanMachine()
	best, bestA, bestB := math.Inf(1), -1, -1
	if exempt(crit) {
		return best, bestA, bestB
	}
	for _, a := range st.JobsOn(crit) {
		for b := 0; b < st.inst.Jobs; b++ {
			if m := st.Assign(b); m == crit || exempt(m) {
				continue
			}
			aC, bC := st.CompletionAfterSwap(int(a), b)
			if v := math.Max(aC, bC); v < best {
				best, bestA, bestB = v, int(a), b
			}
		}
	}
	return best, bestA, bestB
}

// checkCriticalSwap compares the query with refCriticalSwap, bit for bit.
func checkCriticalSwap(t *testing.T, st *State, label string) {
	t.Helper()
	gv, ga, gb := st.Scans(DefaultObjective).BestCriticalSwap()
	wv, wa, wb := refCriticalSwap(st)
	if math.Float64bits(gv) != math.Float64bits(wv) || ga != wa || gb != wb {
		t.Fatalf("%s: query (%x,%d,%d) != pair scan (%x,%d,%d)", label, gv, ga, gb, wv, wa, wb)
	}
}

// TestCriticalSwapMatchesPairScan pins the pruned query to the pair scan
// on random, tie-heavy and gridd-shaped instances, each on both matrix
// backings, across commit sequences that reshape the machine lists and
// move the critical machine. The gridd-shaped instances exempt their
// parking column, as the daemon does; on the others an exemption comes
// and goes mid-sequence.
func TestCriticalSwapMatchesPairScan(t *testing.T) {
	instances := []*etc.Instance{
		randInstance(301, 48, 4),
		randInstance(302, 90, 7),
		etc.Generate(etc.Class{Consistency: etc.Consistent, JobHet: etc.High, MachineHet: etc.Low},
			0, etc.GenerateOptions{Seed: 303, Jobs: 64, Machs: 5}),
		tieInstance(60, 8, 311),
		tieInstance(36, 4, 312),
		tieInstance(20, 3, 313),
		griddInstance(64, 6, 321),
		griddInstance(120, 9, 322),
	}
	for i, in := range instances {
		for _, tw := range []*etc.Instance{in, narrowTwin(in)} {
			r := rng.New(uint64(i) + 340)
			st := NewState(tw, NewRandom(tw, r))
			if in.Name == "gridd" {
				st.SetScanExempt(tw.Machs-1, true)
			}
			for step := 0; step < 120; step++ {
				checkCriticalSwap(t, st, fmt.Sprintf("%s step %d", tw.Name, step))
				if in.Name != "gridd" && step%20 == 10 {
					m := r.Intn(tw.Machs)
					st.SetScanExempt(m, true)
					checkCriticalSwap(t, st, fmt.Sprintf("%s step %d exempt %d", tw.Name, step, m))
					st.SetScanExempt(m, false)
				}
				st.Move(r.Intn(tw.Jobs), r.Intn(tw.Machs))
				st.Swap(r.Intn(tw.Jobs), r.Intn(tw.Jobs))
			}
		}
	}
}

// decodeFuzzInstance decodes the shared fuzz prefix: 2–6 machines and
// 1–48 jobs from the first two bytes, then one palette byte per ETC
// entry and one ready-time byte per machine. It returns the instance and
// the reader of the remaining bytes (zeros once they run out); ok is
// false for inputs shorter than two bytes.
func decodeFuzzInstance(data []byte) (in *etc.Instance, next func() byte, ok bool) {
	if len(data) < 2 {
		return nil, nil, false
	}
	machs := 2 + int(data[0]%5)
	jobs := 1 + int(data[1]%48)
	data = data[2:]
	next = func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	in = etc.New("fuzz", jobs, machs)
	for j := 0; j < jobs; j++ {
		for m := 0; m < machs; m++ {
			switch b := next(); b >> 6 {
			case 0:
				in.Set(j, m, float64(1+b%4)*25)
			case 1:
				in.Set(j, m, float64(1+b%16)*1e-12)
			case 2:
				in.Set(j, m, 1e18)
			default:
				in.Set(j, m, float64(b)+float64(b%7)/7)
			}
		}
	}
	for m := 0; m < machs; m++ {
		in.Ready[m] = float64(next()%4) * 50
	}
	in.Finalize()
	return in, next, true
}

// FuzzCriticalSwap decodes a small instance, schedule and exempt machine
// from the input and checks the query against the pair scan on both
// backings, then again after each of a few random moves seeded from the
// input. Entries come from a palette of tied integers, park keys, 1e18
// blocks and fractional values, so ties, absorbed additions and long
// staircases all show up in short inputs.
func FuzzCriticalSwap(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		seed := uint64(len(data))
		in, next, ok := decodeFuzzInstance(data)
		if !ok {
			return
		}
		jobs, machs := in.Jobs, in.Machs
		s := make(Schedule, jobs)
		for j := range s {
			s[j] = int(next()) % machs
		}
		exempt := -1 // a set high bit selects one machine to exempt
		if b := next(); b >= 0x80 {
			exempt = int(b) % machs
		}
		for _, tw := range []*etc.Instance{in, narrowTwin(in)} {
			st := NewState(tw, s)
			if exempt >= 0 {
				st.SetScanExempt(exempt, true)
			}
			r := rng.New(seed)
			for step := 0; step < 8; step++ {
				checkCriticalSwap(t, st, fmt.Sprintf("%s step %d", tw.Name, step))
				st.Move(r.Intn(jobs), r.Intn(machs))
			}
		}
	})
}

// TestCriticalSwapPrunesAgainstGlobalBest pins that the bound is checked
// against the best pair found over all machines so far, not per machine:
// the first partner machine holds the global winner, and every critical
// job's bound on the later machines exceeds it, so the query runs one
// binary search per critical job on the first machine and none after.
func TestCriticalSwapPrunesAgainstGlobalBest(t *testing.T) {
	const crit, critJobs, perMach = 3, 5, 3
	jobs := critJobs + 3*perMach
	in := etc.New("prune", jobs, 4)
	s := make(Schedule, jobs)
	for a := 0; a < critJobs; a++ {
		in.Set(a, crit, float64(1000+a))
		in.Set(a, 0, 10)
		in.Set(a, 1, 1e5)
		in.Set(a, 2, 1e5)
		s[a] = crit
	}
	for m := 0; m < 3; m++ {
		for k := 0; k < perMach; k++ {
			b := critJobs + m*perMach + k
			for mm := 0; mm < 3; mm++ {
				in.Set(b, mm, 1e5)
			}
			in.Set(b, m, float64(100+k))
			in.Set(b, crit, 50)
			s[b] = m
		}
	}
	in.Finalize()
	for _, tw := range []*etc.Instance{in, narrowTwin(in)} {
		st := NewState(tw, s)
		if st.MakespanMachine() != crit {
			t.Fatalf("%s: critical machine %d, want %d", tw.Name, st.MakespanMachine(), crit)
		}
		sc := st.Scans(DefaultObjective)
		before := sc.searches
		checkCriticalSwap(t, st, tw.Name)
		if n := sc.searches - before; n != critJobs {
			t.Fatalf("%s: %d binary searches, want %d (first machine only)", tw.Name, n, critJobs)
		}
	}
}

// TestCachedScanMatchesFullSweep drives a state through long random
// commit sequences — single moves, swaps, occasional wholesale
// SetSchedule replacements, steps with no commit — and checks the query
// against the reference pair scan twice after every step (the repeat
// reuses the state's scratch). The reference runs on a mirror state, so
// a query that corrupted the state it scans cannot corrupt its reference
// too.
func TestCachedScanMatchesFullSweep(t *testing.T) {
	o := DefaultObjective
	for i, in := range scanInstances() {
		r := rng.New(uint64(i) + 800)
		start := NewRandom(in, r)
		st := NewState(in, start)
		mirror := NewState(in, start.Clone())
		sc := st.Scans(o)
		queries := 0
		for step := 0; step < 900; step++ {
			switch op := r.Intn(10); {
			case op < 5: // committed move
				j, to := r.Intn(in.Jobs), r.Intn(in.Machs)
				st.Move(j, to)
				mirror.Move(j, to)
			case op < 8: // committed swap
				a, b := r.Intn(in.Jobs), r.Intn(in.Jobs)
				st.Swap(a, b)
				mirror.Swap(a, b)
			case op == 8: // wholesale replacement
				s := NewRandom(in, r)
				st.SetSchedule(s)
				mirror.SetSchedule(s)
			default: // no commit
			}
			for q := 0; q < 2; q++ {
				gv, ga, gb := sc.BestCriticalSwap()
				wv, wa, wb := refCriticalSwap(mirror)
				if gv != wv || ga != wa || gb != wb {
					t.Fatalf("instance %d step %d: query (%x,%d,%d) != pair scan (%x,%d,%d)",
						i, step, gv, ga, gb, wv, wa, wb)
				}
				queries++
			}
		}
		if queries < 1500 {
			t.Fatalf("instance %d: only %d differential queries", i, queries)
		}
	}
}

// TestCachedMoveProbesMatchScalar pins the cache's move-side context:
// Fitness and FitnessAfterMove served through the epoch-revalidated
// MoveScan must equal the direct reads bit for bit across random
// commit/probe interleavings.
func TestCachedMoveProbesMatchScalar(t *testing.T) {
	o := DefaultObjective
	for i, in := range scanInstances() {
		r := rng.New(uint64(i) + 900)
		st := NewState(in, NewRandom(in, r))
		sc := st.Scans(o)
		for step := 0; step < 600; step++ {
			j, to := r.Intn(in.Jobs), r.Intn(in.Machs)
			if got, want := sc.Fitness(), o.Of(st); got != want {
				t.Fatalf("instance %d step %d: cached fitness %x != %x", i, step, got, want)
			}
			if got, want := sc.FitnessAfterMove(j, to), st.FitnessAfterMove(o, j, to); got != want {
				t.Fatalf("instance %d step %d: cached probe %x != %x", i, step, got, want)
			}
			if step%3 == 0 {
				st.Move(j, to)
			}
		}
	}
}

// TestScanExemptCriticalMachine pins that exemption covers both sides of
// the critical-swap scan: an exempt machine is skipped as a sweep
// partner, and when it is itself the critical machine its jobs are not
// swept as swap sources either — the query reports no candidate, per the
// SetScanExempt contract that no proposed swap ever involves an exempt
// machine. Re-admitting the machine restores the full-sweep winner.
func TestScanExemptCriticalMachine(t *testing.T) {
	in := scanInstances()[0]
	r := rng.New(990)
	st := NewState(in, NewRandom(in, r))
	sc := st.Scans(DefaultObjective)
	crit := st.MakespanMachine()
	st.SetScanExempt(crit, true)
	if v, a, b := sc.BestCriticalSwap(); !math.IsInf(v, 1) || a != -1 || b != -1 {
		t.Fatalf("exempt critical machine still scanned: (%v,%d,%d)", v, a, b)
	}
	st.SetScanExempt(crit, false)
	gv, ga, gb := sc.BestCriticalSwap()
	mirror := NewState(in, st.Schedule())
	wv, wa, wb := refCriticalSwap(mirror)
	if gv != wv || ga != wa || gb != wb {
		t.Fatalf("re-admitted scan (%x,%d,%d) != full sweep (%x,%d,%d)", gv, ga, gb, wv, wa, wb)
	}
}

// TestBestMoveTargetMatchesSweepFold pins the cache's steepest-transfer
// helper against a direct fold over the move sweep. The sweep's result is
// state-owned and BestMoveTarget sweeps again, so the fold reads a copy.
func TestBestMoveTargetMatchesSweepFold(t *testing.T) {
	o := DefaultObjective
	in := scanInstances()[2] // tie-heavy: the strict-< fold must bind
	r := rng.New(77)
	st := NewState(in, NewRandom(in, r))
	sc := st.Scans(o)
	out := make([]float64, in.Machs)
	for step := 0; step < 400; step++ {
		j := r.Intn(in.Jobs)
		fits := append(out[:0], st.FitnessAfterMoveSweep(o, j)...)
		from := st.Assign(j)
		wantFit, wantTo := fits[from], from
		for to, f := range fits {
			if to != from && f < wantFit {
				wantFit, wantTo = f, to
			}
		}
		gotFit, gotTo := sc.BestMoveTarget(j)
		if gotFit != wantFit || gotTo != wantTo {
			t.Fatalf("step %d: BestMoveTarget (%x,%d) != fold (%x,%d)", step, gotFit, gotTo, wantFit, wantTo)
		}
		if wantTo != from {
			st.Move(j, wantTo)
		}
	}
}

// TestCachedScanAllocationFree asserts that the critical-swap query and
// the cached move probe never allocate once the state's scratch has
// grown.
func TestCachedScanAllocationFree(t *testing.T) {
	in := etc.Generate(etc.Class{Consistency: etc.Inconsistent, JobHet: etc.High, MachineHet: etc.High},
		0, etc.GenerateOptions{Seed: 86, Jobs: 128, Machs: 16})
	o := DefaultObjective
	r := rng.New(4)
	st := NewState(in, NewRandom(in, r))
	sc := st.Scans(o)
	sc.BestCriticalSwap() // grow the scratch
	if n := testing.AllocsPerRun(100, func() {
		st.Move(r.Intn(in.Jobs), r.Intn(in.Machs))
		sc.BestCriticalSwap()
		sc.FitnessAfterMove(r.Intn(in.Jobs), r.Intn(in.Machs))
	}); n != 0 {
		t.Errorf("cached scan allocates %v per query cycle", n)
	}
}

// BenchmarkCachedScanCold measures a cold query: a wholesale
// SetSchedule, then one critical-swap query over every partner machine.
// The op includes the rebuild (BenchmarkRebuildBucket times it alone;
// cMA offspring take the cheaper merge, BenchmarkRebuildMerge). Runs on the Braun u_c_hihi.0 shape (512×16) and a 2048×64
// c_hihi GenSpec. 0 allocs/op, CI-guarded.
func BenchmarkCachedScanCold(b *testing.B) {
	braun, err := etc.GenerateByName("u_c_hihi.0")
	if err != nil {
		b.Fatal(err)
	}
	large, err := etc.GenSpec{Jobs: 2048, Machs: 64,
		Class: etc.Class{Consistency: etc.Consistent, JobHet: etc.High, MachineHet: etc.High},
		Seed:  1}.Generate()
	if err != nil {
		b.Fatal(err)
	}
	for _, in := range []*etc.Instance{braun, large} {
		b.Run(fmt.Sprintf("%dx%d", in.Jobs, in.Machs), func(b *testing.B) {
			s := NewRandom(in, rng.New(7))
			st := NewState(in, s)
			sc := st.Scans(DefaultObjective)
			sc.BestCriticalSwap()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.SetSchedule(s)
				sc.BestCriticalSwap()
			}
		})
	}
}
