package schedule

import (
	"fmt"
	"math"
	"testing"

	"gridcma/internal/etc"
	"gridcma/internal/rng"
)

// Differential fuzz for the event-driven scan cache: across thousands of
// random commit/invalidate sequences the cached critical-swap query must
// return, bit for bit, the winner of a from-scratch pair scan — value,
// critical job and partner id — including on tie-heavy integer instances
// where the (value, SPT-position, id) tie-break contract actually binds.

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

// refBestOn is the brute-force pair loop the staircase scan replaced,
// kept as its reference: every (a, b) pair through the completion-pair
// arithmetic, strict-< across critical jobs in SPT order, smallest
// partner id within one. It reads through At, which widens a float32
// entry exactly as the kernel does, so it serves both backings.
func refBestOn(st *State, m, crit int) (float64, int32, int32) {
	in := st.inst
	cm, critC := st.completion[m], st.completion[crit]
	best := math.Inf(1)
	bestAPos, bestB := int32(-1), int32(-1)
	for apos, a := range st.machJobs[crit] {
		ca := critC - in.At(int(a), crit)
		w := in.At(int(a), m)
		for _, b := range st.machJobs[m] {
			x := ca + in.At(int(b), crit)
			if y := (cm - in.At(int(b), m)) + w; y > x {
				x = y
			}
			if x < best || (x == best && int32(apos) == bestAPos && b < bestB) {
				best, bestAPos, bestB = x, int32(apos), b
			}
		}
	}
	return best, bestAPos, bestB
}

// checkBestOnAllPairs compares bestOn with refBestOn, bit for bit, for
// every ordered pair of distinct machines — any machine may play the
// critical one, since neither scan relies on it being critical.
func checkBestOnAllPairs(t *testing.T, st *State, label string) {
	t.Helper()
	machs := st.inst.Machs
	for crit := 0; crit < machs; crit++ {
		for m := 0; m < machs; m++ {
			if m == crit {
				continue
			}
			gv, ga, gb := st.bestOn(m, crit, st.machJobs[crit])
			wv, wa, wb := refBestOn(st, m, crit)
			if math.Float64bits(gv) != math.Float64bits(wv) || ga != wa || gb != wb {
				t.Fatalf("%s crit %d m %d: staircase (%x,%d,%d) != pair loop (%x,%d,%d)",
					label, crit, m, gv, ga, gb, wv, wa, wb)
			}
		}
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

// TestBestOnMatchesPairScan pins the staircase scan to the pair loop on
// random, tie-heavy and gridd-shaped instances, each on both matrix
// backings, across commit sequences that reshape the machine lists.
func TestBestOnMatchesPairScan(t *testing.T) {
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
			for step := 0; step < 40; step++ {
				checkBestOnAllPairs(t, st, fmt.Sprintf("%s step %d", tw.Name, step))
				for k := 0; k < 3; k++ {
					st.Move(r.Intn(tw.Jobs), r.Intn(tw.Machs))
				}
				st.Swap(r.Intn(tw.Jobs), r.Intn(tw.Jobs))
			}
		}
	}
}

// FuzzBestOn decodes a small instance and schedule from the input and
// checks bestOn against the pair loop for every (crit, m) pair on both
// backings. Entries come from a palette of tied integers, park keys,
// 1e18 blocks and fractional values, so ties, absorbed additions and
// long staircases all show up in short inputs.
func FuzzBestOn(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		machs := 2 + int(data[0]%5)
		jobs := 1 + int(data[1]%48)
		data = data[2:]
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		in := etc.New("fuzz", jobs, machs)
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
		s := make(Schedule, jobs)
		for j := range s {
			s[j] = int(next()) % machs
		}
		for _, tw := range []*etc.Instance{in, narrowTwin(in)} {
			checkBestOnAllPairs(t, NewState(tw, s), tw.Name)
		}
	})
}

// refCriticalSwap is the uncached reference: every (critical job,
// partner) pair through the scalar CompletionAfterSwap query, partners in
// ascending id order, folded with the historical strict-< across critical
// jobs in SPT order.
func refCriticalSwap(st *State) (float64, int, int) {
	crit := st.MakespanMachine()
	best, bestA, bestB := math.Inf(1), -1, -1
	for _, a := range st.JobsOn(crit) {
		for b := 0; b < st.inst.Jobs; b++ {
			if st.Assign(b) == crit {
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

// TestCachedScanMatchesFullSweep drives a state through long random
// commit sequences — single moves, swaps, occasional wholesale
// SetSchedule/CopyFrom invalidations, repeated queries with nothing dirty
// — and checks the cached query against the reference pair scan after
// every step. The reference runs on a mirror state, so a query that
// corrupted the state it scans cannot corrupt its reference too.
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
			case op == 8: // wholesale invalidation
				s := NewRandom(in, r)
				st.SetSchedule(s)
				mirror.SetSchedule(s)
			default: // no-op: next query folds a fully warm cache
			}
			for q := 0; q < 2; q++ { // second query hits the warm path
				gv, ga, gb := sc.BestCriticalSwap()
				wv, wa, wb := refCriticalSwap(mirror)
				if gv != wv || ga != wa || gb != wb {
					t.Fatalf("instance %d step %d: cached scan (%x,%d,%d) != full sweep (%x,%d,%d)",
						i, step, gv, ga, gb, wv, wa, wb)
				}
				queries++
			}
			if st.PendingDirty() != 0 {
				t.Fatalf("instance %d step %d: %d pending dirty after query", i, step, st.PendingDirty())
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

// TestDirtySetSemantics pins the commit event log: a Move marks source
// and target (plus the critical machines when the tree root moves), a
// no-op marks nothing, drains empty the log, and wholesale invalidations
// reset it — so a pooled state is reused clean.
func TestDirtySetSemantics(t *testing.T) {
	in := etc.Generate(etc.Class{}, 0, etc.GenerateOptions{Jobs: 40, Machs: 5, Seed: 60})
	r := rng.New(3)
	st := NewState(in, NewRandom(in, r))
	if st.PendingDirty() != 0 {
		t.Fatalf("fresh state has %d pending dirty", st.PendingDirty())
	}
	j := 0
	from := st.Assign(j)
	to := (from + 1) % in.Machs
	critBefore := st.MakespanMachine()
	st.Move(j, to)
	marked := map[int32]bool{}
	for _, m := range st.DirtyMachines() {
		marked[m] = true
	}
	if !marked[int32(from)] || !marked[int32(to)] {
		t.Fatalf("Move(%d→%d) marked %v, want source+target", from, to, st.DirtyMachines())
	}
	if critAfter := st.MakespanMachine(); critAfter != critBefore &&
		(!marked[int32(critBefore)] || !marked[int32(critAfter)]) {
		t.Fatalf("critical machine moved %d→%d but marks are %v", critBefore, critAfter, st.DirtyMachines())
	}
	st.SyncScans()
	if st.PendingDirty() != 0 {
		t.Fatal("SyncScans left pending dirty")
	}
	st.Move(j, to) // no-op: already there
	if st.PendingDirty() != 0 {
		t.Fatal("no-op Move marked machines")
	}
	st.Swap(j, j) // no-op
	if st.PendingDirty() != 0 {
		t.Fatal("no-op Swap marked machines")
	}
	st.Move(j, from)
	if st.PendingDirty() == 0 {
		t.Fatal("commit did not mark")
	}
	st.SetSchedule(NewRandom(in, r))
	if st.PendingDirty() != 0 {
		t.Fatal("SetSchedule left pending dirty")
	}
	st.Move(0, (st.Assign(0)+1)%in.Machs)
	other := NewState(in, NewRandom(in, r))
	st.CopyFrom(other)
	if st.PendingDirty() != 0 {
		t.Fatal("CopyFrom left pending dirty")
	}
	// Epochs must still have advanced across the wholesale reset, so any
	// cached entry computed before it is stale.
	if st.Epoch() == 0 || st.MachEpoch(0) != st.Epoch() {
		t.Fatalf("wholesale reset: epoch %d, machEpoch %d", st.Epoch(), st.MachEpoch(0))
	}
}

// TestDirtyAuditGauge exercises the cross-state leak gauge the public
// Run leak check builds on.
func TestDirtyAuditGauge(t *testing.T) {
	DirtyAuditStart()
	defer DirtyAuditStop()
	in := etc.Generate(etc.Class{}, 0, etc.GenerateOptions{Jobs: 30, Machs: 4, Seed: 61})
	r := rng.New(9)
	st := NewState(in, NewRandom(in, r))
	st.Move(0, (st.Assign(0)+1)%in.Machs)
	if DirtyAuditPending() == 0 {
		t.Fatal("commit not audited")
	}
	st.SyncScans()
	if n := DirtyAuditPending(); n != 0 {
		t.Fatalf("audit gauge %d after drain", n)
	}
}

// TestCachedScanAllocationFree asserts the steady-state query path of the
// cache — including re-sweeps of dirtied machines — never allocates.
func TestCachedScanAllocationFree(t *testing.T) {
	in := etc.Generate(etc.Class{Consistency: etc.Inconsistent, JobHet: etc.High, MachineHet: etc.High},
		0, etc.GenerateOptions{Seed: 86, Jobs: 128, Machs: 16})
	o := DefaultObjective
	r := rng.New(4)
	st := NewState(in, NewRandom(in, r))
	sc := st.Scans(o)
	sc.BestCriticalSwap() // size the memo arrays
	if n := testing.AllocsPerRun(100, func() {
		st.Move(r.Intn(in.Jobs), r.Intn(in.Machs)) // dirty two machines
		sc.BestCriticalSwap()                      // O(changed) revalidation
		sc.BestCriticalSwap()                      // warm fold
		sc.FitnessAfterMove(r.Intn(in.Jobs), r.Intn(in.Machs))
	}); n != 0 {
		t.Errorf("cached scan allocates %v per query cycle", n)
	}
}

// BenchmarkCachedScanQuery measures one warm cached critical-swap query —
// the steady-state O(M) fold — at the paper's 512×16 shape. Must report 0
// allocs/op: CI runs every CachedScan benchmark with -benchtime=1x and
// fails otherwise.
func BenchmarkCachedScanQuery(b *testing.B) {
	in := etc.Generate(etc.Class{Consistency: etc.Inconsistent, JobHet: etc.High, MachineHet: etc.High},
		0, etc.GenerateOptions{Seed: 1, Jobs: 512, Machs: 16})
	r := rng.New(7)
	st := NewState(in, NewRandom(in, r))
	sc := st.Scans(DefaultObjective)
	sc.BestCriticalSwap()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.BestCriticalSwap()
	}
}

// BenchmarkCachedScanCold measures the cMA's per-offspring pattern: a
// wholesale SetSchedule, which leaves every memo entry stale, then one
// critical-swap query, which re-scans every partner machine. The op
// includes the rebuild (BenchmarkRebuildBucket times it alone). Runs on
// the Braun u_c_hihi.0 shape (512×16) and a 2048×64 c_hihi GenSpec.
// 0 allocs/op, CI-guarded.
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

// BenchmarkCachedScanRevalidate measures the event-driven path: one
// committed move dirties two machines, the next query re-sweeps exactly
// those and folds the rest from the memo — the O(changed) cost the delta
// engine replaces the O(M) full sweep with. 0 allocs/op, CI-guarded.
func BenchmarkCachedScanRevalidate(b *testing.B) {
	in := etc.Generate(etc.Class{Consistency: etc.Inconsistent, JobHet: etc.High, MachineHet: etc.High},
		0, etc.GenerateOptions{Seed: 1, Jobs: 512, Machs: 16})
	r := rng.New(7)
	st := NewState(in, NewRandom(in, r))
	sc := st.Scans(DefaultObjective)
	sc.BestCriticalSwap()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Move(r.Intn(in.Jobs), r.Intn(in.Machs))
		sc.BestCriticalSwap()
	}
}
