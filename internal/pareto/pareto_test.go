package pareto

import (
	"math"
	"testing"
	"testing/quick"

	"gridcma/internal/cma"
	"gridcma/internal/etc"
	"gridcma/internal/localsearch"
	"gridcma/internal/run"
	"gridcma/internal/schedule"
)

func TestDominates(t *testing.T) {
	a := Vec{Makespan: 1, Flowtime: 1}
	b := Vec{Makespan: 2, Flowtime: 2}
	c := Vec{Makespan: 1, Flowtime: 2}
	d := Vec{Makespan: 2, Flowtime: 1}
	if !a.Dominates(b) || b.Dominates(a) {
		t.Error("strict dominance wrong")
	}
	if !a.Dominates(c) || !a.Dominates(d) {
		t.Error("weak-strict dominance wrong")
	}
	if c.Dominates(d) || d.Dominates(c) {
		t.Error("incomparable points must not dominate")
	}
	if a.Dominates(a) {
		t.Error("a point must not dominate itself")
	}
}

func TestDominanceProperties(t *testing.T) {
	f := func(m1, f1, m2, f2 uint16) bool {
		a := Vec{Makespan: float64(m1), Flowtime: float64(f1)}
		b := Vec{Makespan: float64(m2), Flowtime: float64(f2)}
		// Antisymmetry: both cannot dominate each other.
		return !(a.Dominates(b) && b.Dominates(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func sched(n int) schedule.Schedule { return make(schedule.Schedule, n) }

func TestFrontKeepsNonDominated(t *testing.T) {
	f := NewFront(10)
	if !f.Add(sched(4), Vec{10, 100}) {
		t.Fatal("first add rejected")
	}
	if !f.Add(sched(4), Vec{20, 50}) {
		t.Fatal("incomparable add rejected")
	}
	if f.Add(sched(4), Vec{25, 60}) {
		t.Fatal("dominated add accepted")
	}
	if f.Add(sched(4), Vec{10, 100}) {
		t.Fatal("duplicate add accepted")
	}
	if !f.Add(sched(4), Vec{5, 40}) {
		t.Fatal("dominating add rejected")
	}
	// {5,40} dominates both previous points: front collapses to 1.
	if f.Len() != 1 {
		t.Fatalf("front size %d, want 1", f.Len())
	}
}

func TestFrontSolutionsSorted(t *testing.T) {
	f := NewFront(10)
	f.Add(sched(2), Vec{30, 10})
	f.Add(sched(2), Vec{10, 30})
	f.Add(sched(2), Vec{20, 20})
	sols := f.Solutions()
	for i := 1; i < len(sols); i++ {
		if sols[i].Obj.Makespan < sols[i-1].Obj.Makespan {
			t.Fatal("not sorted by makespan")
		}
	}
}

func TestFrontCapacityEvictsInterior(t *testing.T) {
	f := NewFront(3)
	f.Add(sched(2), Vec{1, 100})
	f.Add(sched(2), Vec{100, 1})
	f.Add(sched(2), Vec{50, 50})
	f.Add(sched(2), Vec{30, 70}) // 4th point: one interior point must go
	if f.Len() != 3 {
		t.Fatalf("front size %d, want 3", f.Len())
	}
	// Extremes must survive crowding eviction.
	sols := f.Solutions()
	if !sols[0].Obj.Equal(Vec{1, 100}) || !sols[len(sols)-1].Obj.Equal(Vec{100, 1}) {
		t.Fatalf("extremes evicted: %+v", sols)
	}
}

func TestFrontMutualNonDominationInvariant(t *testing.T) {
	f := NewFront(20)
	r := func(seed uint64) func() float64 {
		x := seed
		return func() float64 {
			x = x*6364136223846793005 + 1442695040888963407
			return float64(x>>40) / float64(1<<24)
		}
	}(7)
	for k := 0; k < 300; k++ {
		f.Add(sched(2), Vec{Makespan: r() * 100, Flowtime: r() * 100})
	}
	sols := f.Solutions()
	for i := range sols {
		for j := range sols {
			if i != j && sols[i].Obj.Dominates(sols[j].Obj) {
				t.Fatalf("archived %v dominates archived %v", sols[i].Obj, sols[j].Obj)
			}
		}
	}
	if f.Len() > 20 {
		t.Fatal("capacity exceeded")
	}
}

func TestFrontClonesSchedules(t *testing.T) {
	f := NewFront(4)
	s := schedule.Schedule{1, 2, 3}
	f.Add(s, Vec{1, 1})
	s[0] = 99
	if f.Solutions()[0].Schedule[0] == 99 {
		t.Fatal("front aliases caller's schedule")
	}
}

func TestHypervolume(t *testing.T) {
	f := NewFront(10)
	f.Add(sched(2), Vec{2, 6})
	f.Add(sched(2), Vec{4, 4})
	f.Add(sched(2), Vec{6, 2})
	ref := Vec{10, 10}
	// Rectangles right-to-left: (10-6)*(10-2)=32, (6-4)*(10-4)=12, (4-2)*(10-6)=8 -> 52.
	if hv := f.Hypervolume(ref); math.Abs(hv-52) > 1e-9 {
		t.Fatalf("hypervolume %v, want 52", hv)
	}
	// A point outside the reference box contributes nothing.
	g := NewFront(10)
	g.Add(sched(2), Vec{20, 1})
	if hv := g.Hypervolume(ref); hv != 0 {
		t.Fatalf("outside point contributed %v", hv)
	}
}

func TestCoverage(t *testing.T) {
	a := NewFront(10)
	a.Add(sched(2), Vec{1, 1})
	b := NewFront(10)
	b.Add(sched(2), Vec{2, 2})
	b.Add(sched(2), Vec{0.5, 3}) // not dominated by a
	if c := Coverage(a, b); c != 0.5 {
		t.Fatalf("coverage %v, want 0.5", c)
	}
	if c := Coverage(b, a); c != 0 {
		t.Fatalf("reverse coverage %v, want 0", c)
	}
	if Coverage(a, NewFront(4)) != 0 {
		t.Fatal("empty g should give 0")
	}
}

func testInstance() *etc.Instance {
	return etc.Generate(etc.Class{Consistency: etc.Consistent, JobHet: etc.High, MachineHet: etc.High},
		0, etc.GenerateOptions{Seed: 5, Jobs: 96, Machs: 8})
}

func fastBase() cma.Config {
	cfg := cma.DefaultConfig()
	cfg.LocalSearch = localsearch.SampledLMCTS{Samples: 16}
	cfg.LSIterations = 2
	return cfg
}

func TestLambdaSweepProducesFront(t *testing.T) {
	in := testInstance()
	front, err := LambdaSweep(in, fastBase(), []float64{0, 0.25, 0.5, 0.75, 1},
		run.Budget{MaxIterations: 10}, 1, 50)
	if err != nil {
		t.Fatal(err)
	}
	// The two objectives are strongly correlated on this benchmark (the
	// paper optimises them jointly for that reason), so the merged front
	// may legitimately collapse to few points — but never be empty, and
	// every archived schedule must be valid and mutually non-dominated.
	if front.Len() < 1 {
		t.Fatal("empty front")
	}
	sols := front.Solutions()
	for i, s := range sols {
		if err := s.Schedule.Validate(in); err != nil {
			t.Fatal(err)
		}
		for j := range sols {
			if i != j && sols[i].Obj.Dominates(sols[j].Obj) {
				t.Fatal("front not mutually non-dominated")
			}
		}
	}
}

func TestLambdaSweepValidation(t *testing.T) {
	in := testInstance()
	if _, err := LambdaSweep(in, fastBase(), nil, run.Budget{MaxIterations: 1}, 1, 10); err == nil {
		t.Error("empty lambda grid accepted")
	}
	if _, err := LambdaSweep(in, fastBase(), []float64{2}, run.Budget{MaxIterations: 1}, 1, 10); err == nil {
		t.Error("lambda out of range accepted")
	}
}

func TestMOCellMARunsAndImproves(t *testing.T) {
	in := testInstance()
	cfg := DefaultMOConfig()
	cfg.Base = fastBase()
	m, err := NewMOCellMA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run(in, run.Budget{MaxIterations: 15}, 3)
	if res.Front.Len() == 0 {
		t.Fatal("empty front")
	}
	if res.Iterations != 15 || res.Evals == 0 {
		t.Fatalf("iterations %d evals %d", res.Iterations, res.Evals)
	}
	// The front must dominate a random schedule comfortably.
	rand := schedule.NewState(in, make(schedule.Schedule, in.Jobs)) // all on machine 0: terrible
	bad := Vec{Makespan: rand.Makespan(), Flowtime: rand.Flowtime()}
	dominated := false
	for _, s := range res.Front.Solutions() {
		if s.Obj.Dominates(bad) {
			dominated = true
			break
		}
	}
	if !dominated {
		t.Error("no front solution dominates the all-on-one-machine schedule")
	}
}

func TestMOCellMAValidation(t *testing.T) {
	cfg := DefaultMOConfig()
	cfg.ArchiveCapacity = 0
	if _, err := NewMOCellMA(cfg); err == nil {
		t.Error("zero capacity accepted")
	}
	cfg = DefaultMOConfig()
	cfg.Base.Width = 0
	if _, err := NewMOCellMA(cfg); err == nil {
		t.Error("bad base config accepted")
	}
}

func TestMOCellMADeterministic(t *testing.T) {
	in := testInstance()
	cfg := DefaultMOConfig()
	cfg.Base = fastBase()
	m, _ := NewMOCellMA(cfg)
	a := m.Run(in, run.Budget{MaxIterations: 8}, 7)
	b := m.Run(in, run.Budget{MaxIterations: 8}, 7)
	as, bs := a.Front.Solutions(), b.Front.Solutions()
	if len(as) != len(bs) {
		t.Fatal("front sizes differ across identical runs")
	}
	for i := range as {
		if !as[i].Obj.Equal(bs[i].Obj) {
			t.Fatal("front contents differ across identical runs")
		}
	}
}

// TestMOCellMAFrontPinned pins the final front of one Table 1-shaped run
// (the Braun u_c_hihi.0 instance, the default configuration, seed 3, 40
// iterations): its (makespan, flowtime) pairs, bit for bit. Any change to
// the evaluation layer under the MOCellMA loop — the offspring rebuild,
// the local search, the replacement — must leave them in place.
func TestMOCellMAFrontPinned(t *testing.T) {
	in, err := etc.GenerateByName("u_c_hihi.0")
	if err != nil {
		t.Fatal(err)
	}
	m, _ := NewMOCellMA(DefaultMOConfig())
	got := m.Run(in, run.Budget{MaxIterations: 40}, 3).Front.Solutions()
	want := []Vec{
		{7.465840834761614e+06, 1.0790677733697908e+09},
		{7.471511345086645e+06, 1.0788075786973097e+09},
		{7.4733935064792475e+06, 1.077674779883274e+09},
		{7.479007670428426e+06, 1.0773528991484122e+09},
	}
	if len(got) != len(want) {
		t.Fatalf("front has %d solutions, want %d", len(got), len(want))
	}
	for i, s := range got {
		if s.Obj != want[i] {
			t.Errorf("front[%d] = %v, want %v", i, s.Obj, want[i])
		}
	}
}

func TestMOCellMABeatsSingleLambdaOnHypervolume(t *testing.T) {
	// The dominance-based search should cover the objective space at
	// least as well as a single scalarised run archived into a front.
	in := testInstance()
	cfg := DefaultMOConfig()
	cfg.Base = fastBase()
	m, _ := NewMOCellMA(cfg)
	mo := m.Run(in, run.Budget{MaxIterations: 20}, 11)

	single, err := LambdaSweep(in, fastBase(), []float64{0.75}, run.Budget{MaxIterations: 20}, 11, 50)
	if err != nil {
		t.Fatal(err)
	}
	ref := Vec{Makespan: 1e9, Flowtime: 1e12}
	if mo.Front.Hypervolume(ref) < single.Hypervolume(ref) {
		t.Errorf("MO front hypervolume %v below single-λ %v",
			mo.Front.Hypervolume(ref), single.Hypervolume(ref))
	}
}

func TestUnboundedBudgetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m, _ := NewMOCellMA(DefaultMOConfig())
	m.Run(testInstance(), run.Budget{}, 1)
}
