package schedule

import (
	"fmt"
	"slices"
	"testing"

	"gridcma/internal/etc"
	"gridcma/internal/rng"
)

// refEval is the historical rebuild, reimplemented naively: bucket the
// jobs per machine, sort each bucket with a SortFunc over the At
// accessor, and resum completions and flowtime in list order. The bucket
// rebuild in state.go must reproduce every list, every prefix sum and
// every scalar bit for bit against this reference — (ETC, id) is a total
// order, so the sorted lists are unique regardless of how they were
// produced.
func refEval(in *etc.Instance, s Schedule) (machJobs [][]int32, cumC, cumF [][]float64, completion []float64, flowtime float64) {
	machJobs = make([][]int32, in.Machs)
	for j, m := range s {
		machJobs[m] = append(machJobs[m], int32(j))
	}
	cumC = make([][]float64, in.Machs)
	cumF = make([][]float64, in.Machs)
	completion = make([]float64, in.Machs)
	for m := range machJobs {
		slices.SortFunc(machJobs[m], func(a, b int32) int {
			ea, eb := in.At(int(a), m), in.At(int(b), m)
			switch {
			case ea < eb:
				return -1
			case ea > eb:
				return 1
			default:
				return int(a - b)
			}
		})
		t := in.Ready[m]
		f := 0.0
		for _, j := range machJobs[m] {
			t += in.At(int(j), m)
			f += t
			cumC[m] = append(cumC[m], t)
			cumF[m] = append(cumF[m], f)
		}
		completion[m] = t
		flowtime += f
	}
	return
}

func checkAgainstRef(t *testing.T, tag string, in *etc.Instance, s Schedule, st *State) {
	t.Helper()
	jobs, cumC, cumF, completion, flowtime := refEval(in, s)
	for m := 0; m < in.Machs; m++ {
		if !slices.Equal(st.JobsOn(m), jobs[m]) {
			t.Fatalf("%s: machine %d jobs = %v, want %v", tag, m, st.JobsOn(m), jobs[m])
		}
		if !slices.Equal(st.machCumC[m], cumC[m]) || !slices.Equal(st.machCumF[m], cumF[m]) {
			t.Fatalf("%s: machine %d prefix sums differ", tag, m)
		}
		if st.Completion(m) != completion[m] {
			t.Fatalf("%s: completion[%d] = %v, want %v", tag, m, st.Completion(m), completion[m])
		}
		for k, j := range jobs[m] {
			if st.slot[j] != int32(k) {
				t.Fatalf("%s: slot[%d] = %d, want %d", tag, j, st.slot[j], k)
			}
		}
	}
	if st.Flowtime() != flowtime {
		t.Fatalf("%s: flowtime = %v, want %v", tag, st.Flowtime(), flowtime)
	}
}

// TestRebuildBucketDifferential pins the bucket rebuild against the
// reference evaluation across random, tie-heavy and float32-backed
// instances, and across SetSchedule transitions that drift the per-machine
// counts (including a full pile-up on one machine, which forces regions
// far beyond the balanced slack). The same states then take offspring
// through SetScheduleFrom (checkMergedChildren).
func TestRebuildBucketDifferential(t *testing.T) {
	f32 := func(jobs, machs int, seed uint64) *etc.Instance {
		g := etc.GenSpec{Jobs: jobs, Machs: machs,
			Class: etc.Class{Consistency: etc.Inconsistent, JobHet: etc.High, MachineHet: etc.High},
			Seed:  seed, Float32: true}
		in, err := g.Generate()
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	instances := []*etc.Instance{
		randInstance(11, 64, 8),
		randInstance(12, 96, 5),
		randInstance(13, 30, 1),
		tieInstance(60, 8, 14), // integer ETC: the id tie-break binds
		tieInstance(48, 4, 15),
		narrowTwin(tieInstance(60, 8, 18)), // ties on the float32 backing
		f32(64, 8, 16),
		f32(40, 6, 17),
	}
	for i, in := range instances {
		r := rng.New(uint64(100 + i))
		s := make(Schedule, in.Jobs)
		for j := range s {
			s[j] = r.Intn(in.Machs)
		}
		st := NewState(in, s)
		checkAgainstRef(t, in.Name+"/new", in, s, st)

		// Re-point the same state at fresh schedules: the carve must
		// track count drift without corrupting neighbours.
		for round := 0; round < 5; round++ {
			for j := range s {
				s[j] = r.Intn(in.Machs)
			}
			st.SetSchedule(s)
			checkAgainstRef(t, in.Name+"/drift", in, s, st)
		}

		// Extreme skew: every job on one machine, then back to spread.
		for j := range s {
			s[j] = 0
		}
		st.SetSchedule(s)
		checkAgainstRef(t, in.Name+"/skew", in, s, st)
		for j := range s {
			s[j] = r.Intn(in.Machs)
		}
		st.SetSchedule(s)
		checkAgainstRef(t, in.Name+"/respread", in, s, st)

		// Clone and CopyFrom route list copies through the same regions.
		cp := st.Clone()
		checkAgainstRef(t, in.Name+"/clone", in, s, cp)
		other := NewState(in, make(Schedule, in.Jobs))
		other.CopyFrom(st)
		checkAgainstRef(t, in.Name+"/copyfrom", in, s, other)

		checkMergedChildren(t, in, st, r)
	}
}

// crossChild writes into child a one-point (kind 0), two-point (kind 1)
// or uniform (kind 2) recombination of a and b — the gene sources of the
// built-in crossovers, so every gene is a[j] or b[j].
func crossChild(kind int, a, b, child Schedule, r *rng.Source) {
	n := len(child)
	switch kind {
	case 0:
		cut := r.Intn(n + 1)
		copy(child[:cut], a[:cut])
		copy(child[cut:], b[cut:])
	case 1:
		x, y := r.Intn(n+1), r.Intn(n+1)
		if x > y {
			x, y = y, x
		}
		copy(child, a)
		copy(child[x:y], b[x:y])
	default:
		for j := range child {
			if r.Intn(2) == 0 {
				child[j] = a[j]
			} else {
				child[j] = b[j]
			}
		}
	}
}

// checkMerge re-points st at child through SetScheduleFrom and checks it
// against the reference, and that the merge (wantMerge) or the sorting
// rebuild ran: only the rebuild fills the jobKey cache, which is cleared
// first.
func checkMerge(t *testing.T, tag string, in *etc.Instance, child Schedule, st, p1, p2 *State, wantMerge bool) {
	t.Helper()
	st.jobKey = nil
	st.SetScheduleFrom(child, p1, p2)
	if sorted := st.jobKey != nil; sorted == wantMerge {
		t.Fatalf("%s: sorting rebuild ran = %v, want %v", tag, sorted, !wantMerge)
	}
	checkAgainstRef(t, tag, in, child, st)
}

// checkMergedChildren feeds st one-point, two-point and uniform children
// of fresh random parents, of a parent paired with itself (the GA can
// draw one parent twice) and of an all-on-one-machine parent, all of
// which must take the merge; then a child with a stray gene and a call
// naming st as a parent, which must take the sorting rebuild.
func checkMergedChildren(t *testing.T, in *etc.Instance, st *State, r *rng.Source) {
	t.Helper()
	p1 := NewState(in, NewRandom(in, r))
	p2 := NewState(in, NewRandom(in, r))
	pile := NewState(in, make(Schedule, in.Jobs))
	child := make(Schedule, in.Jobs)
	pairs := [][2]*State{{p1, p2}, {p2, p1}, {p1, p1}, {pile, p2}, {p1, pile}}
	for round := 0; round < 3; round++ {
		for kind := 0; kind < 3; kind++ {
			for i, pp := range pairs {
				crossChild(kind, pp[0].assign, pp[1].assign, child, r)
				checkMerge(t, fmt.Sprintf("%s/merge round %d kind %d pair %d", in.Name, round, kind, i),
					in, child, st, pp[0], pp[1], true)
			}
		}
		p1.SetSchedule(NewRandom(in, r))
		p2.SetSchedule(NewRandom(in, r))
	}

	crossChild(2, p1.assign, p2.assign, child, r)
	stray := false
	for j := 0; j < in.Jobs && !stray; j++ {
		for m := 0; m < in.Machs; m++ {
			if m != p1.assign[j] && m != p2.assign[j] {
				child[j], stray = m, true
				break
			}
		}
	}
	if stray {
		checkMerge(t, in.Name+"/stray", in, child, st, p1, p2, false)
	}
	crossChild(0, st.assign, p2.assign, child, r)
	checkMerge(t, in.Name+"/self", in, child, st, st, p2, false)
}

// FuzzRebuildMerge decodes an instance (FuzzCriticalSwap's palette of
// tied integers, park keys, 1e18 blocks and fractions), two parent
// schedules and a per-job gene choice, then checks SetScheduleFrom
// against the reference on both backings. A choice byte of 0xff writes
// a gene that may be in neither parent, so the fallback is fuzzed too;
// a set high bit of the flag byte makes the two parents one state.
func FuzzRebuildMerge(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in, next, ok := decodeFuzzInstance(data)
		if !ok {
			return
		}
		jobs, machs := in.Jobs, in.Machs
		a1, a2, child := make(Schedule, jobs), make(Schedule, jobs), make(Schedule, jobs)
		for j := range a1 {
			a1[j] = int(next()) % machs
		}
		for j := range a2 {
			a2[j] = int(next()) % machs
		}
		same := next() >= 0x80
		if same {
			copy(a2, a1)
		}
		wantMerge := true
		for j := range child {
			switch b := next(); {
			case b == 0xff:
				child[j] = (a1[j] + 1) % machs
			case b&1 == 0:
				child[j] = a1[j]
			default:
				child[j] = a2[j]
			}
			if child[j] != a1[j] && child[j] != a2[j] {
				wantMerge = false
			}
		}
		for _, tw := range []*etc.Instance{in, narrowTwin(in)} {
			p1 := NewState(tw, a1)
			p2 := p1
			if !same {
				p2 = NewState(tw, a2)
			}
			st := NewState(tw, a2)
			checkMerge(t, tw.Name, tw, child, st, p1, p2, wantMerge)
		}
	})
}

// benchSchedules returns a 512×16 instance and two random schedules of it.
func benchSchedules() (*etc.Instance, Schedule, Schedule) {
	in := randInstance(1, 512, 16)
	r := rng.New(2)
	return in, NewRandom(in, r), NewRandom(in, r)
}

// BenchmarkRebuildBucket is the steady-state SetSchedule path under the
// bucket rebuild, the path of every schedule without parents: re-pointing
// a warm State at alternating schedules must not allocate (CI's
// allocation guard runs this at -benchtime 1x).
func BenchmarkRebuildBucket(b *testing.B) {
	in, a, c := benchSchedules()
	st := NewState(in, a)
	st.SetSchedule(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			st.SetSchedule(a)
		} else {
			st.SetSchedule(c)
		}
	}
}

// BenchmarkRebuildMerge is BenchmarkRebuildBucket's twin on the offspring
// path: a warm State re-pointed through SetScheduleFrom at alternating
// one-point children of two warm parents. Must not allocate (CI-guarded).
func BenchmarkRebuildMerge(b *testing.B) {
	in, a, c := benchSchedules()
	p1, p2 := NewState(in, a), NewState(in, c)
	x, y := make(Schedule, in.Jobs), make(Schedule, in.Jobs)
	r := rng.New(3)
	crossChild(0, a, c, x, r)
	crossChild(0, c, a, y, r)
	st := NewState(in, a)
	st.SetScheduleFrom(x, p1, p2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			st.SetScheduleFrom(x, p1, p2)
		} else {
			st.SetScheduleFrom(y, p2, p1)
		}
	}
}
