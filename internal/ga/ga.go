// Package ga implements the three unstructured genetic algorithms the
// paper compares against (Tables 2, 3 and 5):
//
//   - Braun et al.'s GA (JPDC 2001): generational, rank-based roulette
//     selection, one-point crossover, move mutation, elitism, population
//     seeded with Min-Min.
//   - Carretero & Xhafa's GA (2006): steady-state — each step breeds one
//     offspring from tournament-selected parents and replaces the worst
//     individual if better.
//   - Xhafa's Struggle GA (BIOMA 2006): steady-state with struggle
//     replacement — the offspring replaces the *most similar* individual
//     (Hamming distance over the assignment vector) when fitter, which
//     preserves diversity.
//
// All three optimise the same scalarised fitness as the cMA and share the
// run.Budget / run.Result vocabulary, so the experiment harness can drive
// them interchangeably. Parameters follow the published descriptions where
// stated and are documented defaults otherwise.
package ga

import (
	"fmt"
	"math"
	"time"

	"gridcma/internal/etc"
	"gridcma/internal/evalpool"
	"gridcma/internal/heuristics"
	"gridcma/internal/operators"
	"gridcma/internal/rng"
	"gridcma/internal/run"
	"gridcma/internal/schedule"
)

// Variant selects one of the implemented genetic algorithms.
type Variant int

const (
	// Braun is the generational GA of Braun et al.
	Braun Variant = iota
	// SteadyState is the Carretero–Xhafa replace-worst GA.
	SteadyState
	// Struggle is Xhafa's similarity-replacement GA.
	Struggle
	// GSA is the genetic simulated annealing hybrid of the Braun et al.
	// heuristic suite: steady-state GA variation with a Metropolis
	// acceptance test against the replacement victim and a geometric
	// temperature schedule.
	GSA
)

// String returns the name used in results and reports.
func (v Variant) String() string {
	switch v {
	case Braun:
		return "BraunGA"
	case SteadyState:
		return "SteadyStateGA"
	case Struggle:
		return "StruggleGA"
	case GSA:
		return "GSA"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Config parameterises a GA run. NewConfig returns per-variant defaults.
type Config struct {
	Variant Variant

	PopSize int
	// CrossoverProb and MutationProb gate the two operators per
	// offspring (Braun: 0.6 / 0.4).
	CrossoverProb float64
	MutationProb  float64

	Selector  operators.Selector
	Crossover operators.Crossover
	Mutator   operators.Mutator

	Objective schedule.Objective

	// Elitism keeps the best individual across generations (generational
	// variant only; steady-state variants are implicitly elitist).
	Elitism bool

	// SeedHeuristic initialises one individual; the rest are random.
	// Braun et al. seed with Min-Min.
	SeedHeuristic func(*etc.Instance) schedule.Schedule

	// InitialTempFactor and Cooling drive the GSA variant's Metropolis
	// acceptance (ignored by the other variants): the temperature starts
	// at InitialTempFactor × the seed fitness and is multiplied by
	// Cooling after every step.
	InitialTempFactor float64
	Cooling           float64
}

// NewConfig returns the published/default configuration of a variant.
func NewConfig(v Variant) Config {
	switch v {
	case Braun:
		return Config{
			Variant:       Braun,
			PopSize:       200,
			CrossoverProb: 0.6,
			MutationProb:  0.4,
			Selector:      operators.LinearRank{},
			Crossover:     operators.OnePoint{},
			Mutator:       operators.Move{},
			Objective:     schedule.DefaultObjective,
			Elitism:       true,
			SeedHeuristic: heuristics.MinMin,
		}
	case SteadyState:
		return Config{
			Variant:       SteadyState,
			PopSize:       60,
			CrossoverProb: 1.0,
			MutationProb:  0.4,
			Selector:      operators.NewTournament(3),
			Crossover:     operators.OnePoint{},
			Mutator:       operators.Move{},
			Objective:     schedule.DefaultObjective,
			SeedHeuristic: heuristics.LJFRSJFR,
		}
	case Struggle:
		return Config{
			Variant:       Struggle,
			PopSize:       60,
			CrossoverProb: 1.0,
			MutationProb:  0.4,
			Selector:      operators.NewTournament(3),
			Crossover:     operators.OnePoint{},
			Mutator:       operators.Move{},
			Objective:     schedule.DefaultObjective,
			SeedHeuristic: heuristics.LJFRSJFR,
		}
	case GSA:
		return Config{
			Variant:           GSA,
			PopSize:           60,
			CrossoverProb:     1.0,
			MutationProb:      0.4,
			Selector:          operators.NewTournament(3),
			Crossover:         operators.OnePoint{},
			Mutator:           operators.Move{},
			Objective:         schedule.DefaultObjective,
			SeedHeuristic:     heuristics.MinMin,
			InitialTempFactor: 0.1,
			Cooling:           0.99,
		}
	default:
		panic(fmt.Sprintf("ga: unknown variant %v", v))
	}
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	switch {
	case c.PopSize < 2:
		return fmt.Errorf("ga: population size %d", c.PopSize)
	case c.CrossoverProb < 0 || c.CrossoverProb > 1:
		return fmt.Errorf("ga: crossover probability %v", c.CrossoverProb)
	case c.MutationProb < 0 || c.MutationProb > 1:
		return fmt.Errorf("ga: mutation probability %v", c.MutationProb)
	case c.Selector == nil || c.Crossover == nil || c.Mutator == nil:
		return fmt.Errorf("ga: nil operator")
	case c.Objective.Lambda < 0 || c.Objective.Lambda > 1:
		return fmt.Errorf("ga: lambda %v", c.Objective.Lambda)
	}
	if c.Variant == GSA {
		if c.InitialTempFactor <= 0 {
			return fmt.Errorf("ga: GSA needs InitialTempFactor > 0, got %v", c.InitialTempFactor)
		}
		if c.Cooling <= 0 || c.Cooling >= 1 {
			return fmt.Errorf("ga: GSA cooling %v outside (0,1)", c.Cooling)
		}
	}
	return nil
}

// Scheduler is a reusable GA bound to a configuration.
type Scheduler struct {
	cfg Config
}

// New validates cfg and returns a Scheduler.
func New(cfg Config) (*Scheduler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Scheduler{cfg: cfg}, nil
}

// Config returns the scheduler's configuration.
func (s *Scheduler) Config() Config { return s.cfg }

// Name identifies the algorithm in results.
func (s *Scheduler) Name() string { return s.cfg.Variant.String() }

// Run executes the GA within budget.
func (s *Scheduler) Run(in *etc.Instance, budget run.Budget, seed uint64, obs run.Observer) run.Result {
	return s.RunPooled(in, budget, seed, obs, nil)
}

// RunPooled is Run with a caller-supplied scratch pool (it implements
// runner.PooledScheduler): batch sweeps on one instance reuse offspring
// workspaces across runs. A nil or foreign-instance pool falls back to a
// private one; sharing never affects results.
func (s *Scheduler) RunPooled(in *etc.Instance, budget run.Budget, seed uint64, obs run.Observer, pool *evalpool.Pool) run.Result {
	if !budget.Bounded() {
		panic("ga: unbounded budget")
	}
	if pool != nil && pool.Instance() != in {
		pool = nil
	}
	g := &gaState{in: in, cfg: s.cfg, r: rng.New(seed), pool: pool}
	g.init()
	defer func() {
		g.pool.Put(g.scratch)
		g.scratch = nil
	}()
	return g.run(budget, obs)
}

// gaState is the mutable state of one GA run.
type gaState struct {
	in  *etc.Instance
	cfg Config
	r   *rng.Source

	pop []*schedule.State
	fit []float64
	// next/nextFit double-buffer the generational variant so a
	// generation swaps populations instead of allocating one.
	next    []*schedule.State
	nextFit []float64

	pool    *evalpool.Pool
	scratch *evalpool.Scratch
	evals   int64
	temp    float64 // GSA temperature

	best evalpool.Best
}

func (g *gaState) init() {
	if g.pool == nil {
		g.pool = evalpool.New(g.in)
	}
	g.pop = make([]*schedule.State, g.cfg.PopSize)
	g.fit = make([]float64, g.cfg.PopSize)
	for i := range g.pop {
		var s schedule.Schedule
		if i == 0 && g.cfg.SeedHeuristic != nil {
			s = g.cfg.SeedHeuristic(g.in)
		} else {
			s = schedule.NewRandom(g.in, g.r)
		}
		g.pop[i] = schedule.NewState(g.in, s)
		g.fit[i] = g.cfg.Objective.Of(g.pop[i])
		g.evals++
		g.best.Note(g.pop[i], g.fit[i])
	}
	g.scratch = g.pool.Get()
	if g.cfg.Variant == GSA {
		g.temp = g.cfg.InitialTempFactor * g.best.Fitness()
	}
}

// breed produces one offspring into g.scratch from two selected parents
// (Propose into the scratch buffer, mutate in place) and returns its
// fitness.
func (g *gaState) breed(indices []int) float64 {
	fitAt := func(i int) float64 { return g.fit[i] }
	p1 := g.cfg.Selector.Select(indices, fitAt, g.r)
	p2 := g.cfg.Selector.Select(indices, fitAt, g.r)
	if g.r.Float64() < g.cfg.CrossoverProb {
		g.cfg.Crossover.Cross(g.pop[p1].ScheduleView(), g.pop[p2].ScheduleView(), g.scratch.Buf, g.r)
		g.scratch.St.SetScheduleFrom(g.scratch.Buf, g.pop[p1], g.pop[p2])
	} else {
		g.scratch.St.CopyFrom(g.pop[p1])
	}
	if g.r.Float64() < g.cfg.MutationProb {
		g.cfg.Mutator.Mutate(g.scratch.St, g.r)
	}
	g.evals++
	return g.cfg.Objective.Of(g.scratch.St)
}

func (g *gaState) run(budget run.Budget, obs run.Observer) run.Result {
	start := time.Now()
	iter := 0
	emit := func() {
		if obs != nil {
			obs(run.Progress{
				Elapsed:   time.Since(start),
				Iteration: iter,
				Fitness:   g.best.Fitness(),
				Makespan:  g.best.Makespan(),
				Flowtime:  g.best.Flowtime(),
			})
		}
	}
	emit()
	indices := make([]int, g.cfg.PopSize)
	for i := range indices {
		indices[i] = i
	}
	for !budget.Done(iter, start) {
		switch g.cfg.Variant {
		case Braun:
			g.generation(indices)
		default:
			g.steadyStep(indices)
		}
		iter++
		emit()
	}
	return run.Result{
		Best:       g.best.Schedule(),
		Fitness:    g.best.Fitness(),
		Makespan:   g.best.Makespan(),
		Flowtime:   g.best.Flowtime(),
		Iterations: iter,
		Evals:      g.evals,
		Elapsed:    time.Since(start),
		Algorithm:  g.cfg.Variant.String(),
	}
}

// generation performs one full generational replacement (Braun variant).
// The two populations are double-buffered: offspring are copied into the
// standby population, which is then swapped in — no per-offspring clone.
func (g *gaState) generation(indices []int) {
	n := g.cfg.PopSize
	if g.next == nil {
		g.next = make([]*schedule.State, n)
		g.nextFit = make([]float64, n)
		for i := range g.next {
			g.next[i] = schedule.NewState(g.in, g.pop[i].ScheduleView())
		}
	}
	startIdx := 0
	if g.cfg.Elitism {
		// Carry over the best current individual unchanged.
		bi := 0
		for i := 1; i < n; i++ {
			if g.fit[i] < g.fit[bi] {
				bi = i
			}
		}
		g.next[0].CopyFrom(g.pop[bi])
		g.nextFit[0] = g.fit[bi]
		startIdx = 1
	}
	for i := startIdx; i < n; i++ {
		f := g.breed(indices)
		g.next[i].CopyFrom(g.scratch.St)
		g.nextFit[i] = f
		g.best.Note(g.next[i], f)
	}
	g.pop, g.next = g.next, g.pop
	g.fit, g.nextFit = g.nextFit, g.fit
}

// steadyStep breeds one offspring and inserts it with the variant's
// replacement policy.
func (g *gaState) steadyStep(indices []int) {
	f := g.breed(indices)
	victim := -1
	switch g.cfg.Variant {
	case SteadyState:
		// Replace the worst individual if the child improves on it.
		worst := 0
		for i := 1; i < g.cfg.PopSize; i++ {
			if g.fit[i] > g.fit[worst] {
				worst = i
			}
		}
		if f < g.fit[worst] {
			victim = worst
		}
	case Struggle:
		// Replace the most similar individual if the child improves on it.
		child := g.scratch.St.ScheduleView()
		closest, bestD := 0, g.in.Jobs+1
		for i := 0; i < g.cfg.PopSize; i++ {
			if d := child.Hamming(g.pop[i].ScheduleView()); d < bestD {
				closest, bestD = i, d
			}
		}
		if f < g.fit[closest] {
			victim = closest
		}
	case GSA:
		// Metropolis acceptance against a random victim, then cool.
		cand := g.r.Intn(g.cfg.PopSize)
		accept := f < g.fit[cand]
		if !accept && g.temp > 0 {
			accept = g.r.Float64() < math.Exp((g.fit[cand]-f)/g.temp)
		}
		if accept {
			victim = cand
		}
		g.temp *= g.cfg.Cooling
	default:
		panic(fmt.Sprintf("ga: steadyStep on variant %v", g.cfg.Variant))
	}
	if victim >= 0 {
		g.pop[victim].CopyFrom(g.scratch.St)
		g.fit[victim] = f
		g.best.Note(g.scratch.St, f)
	}
}
