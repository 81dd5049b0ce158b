// Package cma implements the paper's contribution: a Cellular Memetic
// Algorithm (cMA) for batch scheduling of independent jobs on
// heterogeneous grids, following Algorithm 1 of the paper.
//
// The population lives on a toroidal 2-D grid. Each iteration performs
// nb_recombinations recombination updates and nb_mutations mutation
// updates; the two processes walk the grid with independent sweep orders
// (Table 1: FLS for recombination, NRS for mutation). Every offspring is
// improved by a local search method before evaluation and replaces the
// individual at its cell only if strictly better ("add only if better").
//
// Three updating disciplines are provided:
//
//   - Asynchronous sequential (the paper's choice, Workers = 0): updates
//     are applied in sweep order within the iteration, so later cells see
//     earlier replacements. One shared RNG stream, strictly sequential.
//   - Asynchronous block-parallel (Workers >= 1): the grid is partitioned
//     (internal/cell.Partition) and cells are swept in its wave order —
//     a cover of the grid by pairwise non-interacting cell sets. Updates
//     are planned into execution waves, each wave's offspring evaluated
//     concurrently across Workers goroutines from per-update RNG streams,
//     and committed in draw order, so later waves see earlier
//     replacements. Because intra-wave updates touch disjoint
//     neighborhoods, the run is byte-identical for every worker count.
//   - Synchronous: all offspring of an iteration are computed against the
//     frozen current generation and committed together at the end — one
//     big wave of the same executor, equally reproducible for any
//     Workers.
package cma

import (
	"fmt"
	"sync"
	"time"

	"gridcma/internal/cell"
	"gridcma/internal/etc"
	"gridcma/internal/evalpool"
	"gridcma/internal/heuristics"
	"gridcma/internal/localsearch"
	"gridcma/internal/operators"
	"gridcma/internal/rng"
	"gridcma/internal/run"
	"gridcma/internal/schedule"
)

// Config collects every tunable of the cMA. DefaultConfig returns the
// paper's Table 1 values; zero-value fields in a hand-built Config are
// rejected by Validate rather than silently defaulted.
type Config struct {
	Width, Height int // population grid shape (Table 1: 5×5)

	Pattern     cell.Pattern // neighborhood (Table 1: C9)
	RecombOrder cell.Order   // sweep order of the recombination pass (FLS)
	MutOrder    cell.Order   // sweep order of the mutation pass (NRS)

	Recombinations       int // recombination updates per iteration (25)
	Mutations            int // mutation updates per iteration (12)
	SolutionsToRecombine int // |S| in SelectToRecombine (3)

	Selector  operators.Selector  // parent selection (3-Tournament)
	Crossover operators.Crossover // recombination (One-Point)
	Mutator   operators.Mutator   // mutation (Rebalance)

	LocalSearch  localsearch.Method // offspring improvement (LMCTS)
	LSIterations int                // local search budget per offspring (5)

	Objective schedule.Objective // fitness (λ = 0.75)

	// AddOnlyIfBetter controls replacement: if true (the paper's setting)
	// an offspring replaces its cell only when strictly fitter.
	AddOnlyIfBetter bool

	// SeedHeuristic builds individual 0; the rest of the population are
	// perturbed copies. Nil seeds the whole population randomly.
	SeedHeuristic func(*etc.Instance) schedule.Schedule
	// PerturbFraction is the fraction of genes randomised when deriving
	// the initial population from the seed individual (0.3 by default).
	PerturbFraction float64

	// Synchronous switches to generation-synchronous updating.
	Synchronous bool
	// Workers bounds the goroutines evaluating offspring. In asynchronous
	// mode 0 selects the paper-faithful strictly sequential engine (one
	// shared RNG stream), while any value >= 1 selects the block-parallel
	// partitioned engine, whose results depend only on the seed — never on
	// the worker count. In synchronous mode 0 means one goroutine; results
	// are likewise identical for every worker count.
	Workers int
}

// DefaultConfig returns the tuned configuration of Table 1.
func DefaultConfig() Config {
	return Config{
		Width: 5, Height: 5,
		Pattern:              cell.C9,
		RecombOrder:          cell.FLS,
		MutOrder:             cell.NRS,
		Recombinations:       25,
		Mutations:            12,
		SolutionsToRecombine: 3,
		Selector:             operators.NewTournament(3),
		Crossover:            operators.OnePoint{},
		Mutator:              operators.DefaultRebalance,
		LocalSearch:          localsearch.LMCTS{},
		LSIterations:         5,
		Objective:            schedule.DefaultObjective,
		AddOnlyIfBetter:      true,
		SeedHeuristic:        heuristics.LJFRSJFR, // Table 1 "start choice"
		PerturbFraction:      0.3,
	}
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	switch {
	case c.Width <= 0 || c.Height <= 0:
		return fmt.Errorf("cma: invalid grid %dx%d", c.Width, c.Height)
	case c.Recombinations < 0 || c.Mutations < 0:
		return fmt.Errorf("cma: negative update counts")
	case c.Recombinations == 0 && c.Mutations == 0:
		return fmt.Errorf("cma: no updates per iteration")
	case c.SolutionsToRecombine < 2:
		return fmt.Errorf("cma: SolutionsToRecombine = %d, need >= 2", c.SolutionsToRecombine)
	case c.Selector == nil:
		return fmt.Errorf("cma: nil Selector")
	case c.Crossover == nil:
		return fmt.Errorf("cma: nil Crossover")
	case c.Mutator == nil:
		return fmt.Errorf("cma: nil Mutator")
	case c.LocalSearch == nil:
		return fmt.Errorf("cma: nil LocalSearch")
	case c.LSIterations < 0:
		return fmt.Errorf("cma: negative LSIterations")
	case c.Objective.Lambda < 0 || c.Objective.Lambda > 1:
		return fmt.Errorf("cma: lambda %v outside [0,1]", c.Objective.Lambda)
	case c.PerturbFraction < 0 || c.PerturbFraction > 1:
		return fmt.Errorf("cma: PerturbFraction %v outside [0,1]", c.PerturbFraction)
	case c.Workers < 0:
		return fmt.Errorf("cma: negative Workers")
	}
	return nil
}

// Scheduler is a reusable cMA instance bound to a configuration.
type Scheduler struct {
	cfg Config
}

// New returns a Scheduler after validating cfg. A nil SeedHeuristic means
// a fully random initial population; DefaultConfig seeds with LJFR-SJFR as
// the paper does.
func New(cfg Config) (*Scheduler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Scheduler{cfg: cfg}, nil
}

// Config returns the scheduler's configuration.
func (s *Scheduler) Config() Config { return s.cfg }

// Name identifies the algorithm in results.
func (s *Scheduler) Name() string {
	switch {
	case s.cfg.Synchronous:
		return "cMA-sync"
	case s.cfg.Workers > 0:
		return "cMA-par"
	default:
		return "cMA"
	}
}

// Run executes the cMA on instance in with the given budget and RNG seed,
// reporting progress to obs (which may be nil).
func (s *Scheduler) Run(in *etc.Instance, budget run.Budget, seed uint64, obs run.Observer) run.Result {
	return s.RunPooled(in, budget, seed, obs, nil)
}

// RunPooled is Run with a caller-supplied scratch pool (it implements
// runner.PooledScheduler). The engine draws its offspring workspaces
// from pool and returns them when the run finishes, so consecutive runs
// on one instance — a batch sweep, a seed ladder — reuse the same
// scratch States instead of rebuilding them. A nil pool, or one bound to
// a different instance, falls back to a private pool. Sharing never
// affects results: scratches are always re-pointed (SetSchedule /
// CopyFrom) before being read.
func (s *Scheduler) RunPooled(in *etc.Instance, budget run.Budget, seed uint64, obs run.Observer, pool *evalpool.Pool) run.Result {
	if !budget.Bounded() {
		panic("cma: unbounded budget")
	}
	if pool != nil && pool.Instance() != in {
		pool = nil
	}
	e := newEngine(in, s.cfg, seed, nil, nil, budget, pool)
	return e.run(budget, obs, s.Name())
}

// RunWithPopulation is Run, but the mesh is seeded from initial (cloned;
// truncated or padded with perturbed copies of its first element as
// needed) and the final population is returned alongside the result. It
// is the migration hook of the coarse-grained island model
// (internal/island): islands export their populations at segment
// boundaries, exchange individuals, and resume.
func (s *Scheduler) RunWithPopulation(in *etc.Instance, budget run.Budget, seed uint64, obs run.Observer, initial []schedule.Schedule) (run.Result, []schedule.Schedule) {
	return s.RunWithPopulationPooled(in, budget, seed, obs, initial, nil)
}

// RunWithPopulationPooled is RunWithPopulation drawing offspring
// workspaces from a caller-supplied pool, under the same advisory
// contract as RunPooled — the island model shares one pool across its
// concurrently running segment sub-runs (the pool is safe for that).
func (s *Scheduler) RunWithPopulationPooled(in *etc.Instance, budget run.Budget, seed uint64, obs run.Observer, initial []schedule.Schedule, pool *evalpool.Pool) (run.Result, []schedule.Schedule) {
	if !budget.Bounded() {
		panic("cma: unbounded budget")
	}
	if pool != nil && pool.Instance() != in {
		pool = nil
	}
	e := newEngine(in, s.cfg, seed, initial, nil, budget, pool)
	res := e.run(budget, obs, s.Name())
	final := make([]schedule.Schedule, len(e.pop))
	for i, st := range e.pop {
		final[i] = st.Schedule()
	}
	return res, final
}

// RunWithStatesPooled is the cache-aware sibling of
// RunWithPopulationPooled: instead of rebuilding every cell's State from
// a schedule, the engine adopts the caller's live States as the mesh —
// warm prefix sums and tournament trees included — and returns the same slice,
// still owned by the caller, for the next segment. Everything else is
// identical to the schedule path: local search improves each individual
// before the first evaluation, consuming exactly the same RNG draws, so
// a segment resumed from states is bit-identical to one resumed from the
// equivalent schedules (pinned by the island differential tests).
//
// states must be nil (fresh mesh, like initial=nil) or hold exactly
// Width*Height entries on in.
func (s *Scheduler) RunWithStatesPooled(in *etc.Instance, budget run.Budget, seed uint64, obs run.Observer, states []*schedule.State, pool *evalpool.Pool) (run.Result, []*schedule.State) {
	if !budget.Bounded() {
		panic("cma: unbounded budget")
	}
	if pool != nil && pool.Instance() != in {
		pool = nil
	}
	if states != nil && len(states) != s.cfg.Width*s.cfg.Height {
		panic("cma: RunWithStatesPooled: state count does not match the mesh")
	}
	e := newEngine(in, s.cfg, seed, nil, states, budget, pool)
	res := e.run(budget, obs, s.Name())
	return res, e.pop
}

// CellComponents exposes the cellular plumbing of a configuration — the
// population size, per-cell neighbor lists and the two sweep orders — so
// extension algorithms (e.g. the multi-objective variant in
// internal/pareto) can share the exact population structure without
// depending on the engine's internals. It consumes two values from r.
func CellComponents(cfg Config, r *rng.Source) (size int, neighborhoods [][]int, recOrder, mutOrder cell.SweepOrder) {
	g := cell.NewGrid(cfg.Width, cfg.Height)
	nb := cell.NewNeighborhood(g, cfg.Pattern)
	n := g.Size()
	return n, nb.Of, cell.NewSweep(cfg.RecombOrder, n, r.Split()), cell.NewSweep(cfg.MutOrder, n, r.Split())
}

// engine is the mutable state of one run.
type engine struct {
	in     *etc.Instance
	cfg    Config
	r      *rng.Source
	seed   uint64
	budget run.Budget // for cancellation polling inside expensive phases
	grid   cell.Grid
	nb     *cell.Neighborhood
	pop    []*schedule.State
	fit    []float64
	adopt  []*schedule.State // caller-owned warm states adopted as the mesh
	recOrd cell.SweepOrder
	mutOrd cell.SweepOrder

	// allocation-free evaluation plumbing (internal/evalpool)
	pool    *evalpool.Pool
	scratch *evalpool.Scratch // sequential-path offspring workspace
	evals   int64

	// partitioned parallel executor state (par.go); nil/empty for the
	// sequential engine
	part      *cell.Partition
	draws     []draw
	drawCells []int
	waves     [][]int
	frozenFit []float64

	// persistent worker pool (par.go): started lazily at the first
	// parallel batch, stopped — and awaited — when run returns
	tasks     chan int
	taskWG    sync.WaitGroup
	workersWG sync.WaitGroup
	taskExec  func(int)

	// best-ever (the population best is monotone under add-if-better,
	// but we track explicitly to also support AddOnlyIfBetter=false).
	best evalpool.Best
}

func newEngine(in *etc.Instance, cfg Config, seed uint64, initial []schedule.Schedule, adopt []*schedule.State, budget run.Budget, pool *evalpool.Pool) *engine {
	if pool == nil {
		pool = evalpool.New(in)
	}
	e := &engine{
		in:     in,
		cfg:    cfg,
		r:      rng.New(seed),
		seed:   seed,
		grid:   cell.NewGrid(cfg.Width, cfg.Height),
		budget: budget,
		pool:   pool,
		adopt:  adopt,
	}
	e.nb = cell.NewNeighborhood(e.grid, cfg.Pattern)
	n := e.grid.Size()
	e.pop = make([]*schedule.State, n)
	e.fit = make([]float64, n)
	if !cfg.Synchronous && cfg.Workers > 0 {
		// Block-parallel engine: both passes sweep the partition's wave
		// order, so consecutive draws form wide independent waves.
		e.part = cell.NewPartition(e.grid, cfg.Pattern)
		ord := e.part.Order()
		e.recOrd = cell.NewPermSweep("WAVE", ord)
		e.mutOrd = cell.NewPermSweep("WAVE", append([]int(nil), ord...))
	} else {
		e.recOrd = cell.NewSweep(cfg.RecombOrder, n, e.r.Split())
		e.mutOrd = cell.NewSweep(cfg.MutOrder, n, e.r.Split())
	}

	e.initPopulation(initial)
	return e
}

// workers returns the effective worker count of the parallel paths.
func (e *engine) workers() int {
	if e.cfg.Workers < 1 {
		return 1
	}
	return e.cfg.Workers
}

// initPopulation builds the initial mesh. With an explicit initial
// population (migration resume), individuals are cloned from it, padding
// with perturbed copies of its first element when it is short. Otherwise
// the mesh is the seed heuristic individual plus perturbed copies (or
// all-random when no seed heuristic). In every case — per Algorithm 1 —
// local search improves each individual before the first evaluation.
//
// With Workers >= 1 the per-cell work (perturbation and local search)
// draws from per-cell RNG streams and is fanned across the workers; the
// result is identical for every worker count. Workers == 0 keeps the
// legacy strictly sequential initialisation on the shared stream.
func (e *engine) initPopulation(initial []schedule.Schedule) {
	var base schedule.Schedule
	if e.adopt != nil {
		// Adopted warm states fill every cell; no seed individual is
		// needed (and none of the paths below consumes RNG for one, so
		// the streams stay aligned with the schedule-resume path).
	} else if len(initial) > 0 {
		base = initial[0]
	} else if e.cfg.SeedHeuristic != nil {
		base = e.cfg.SeedHeuristic(e.in)
	}
	frac := e.cfg.PerturbFraction
	if frac == 0 {
		frac = 0.3
	}
	if e.cfg.Workers >= 1 {
		e.initCells(initial, base, frac)
	} else {
		for i := range e.pop {
			e.initCell(i, initial, base, frac, e.r)
		}
	}
	e.evals += int64(len(e.pop))
	e.scratch = e.pool.Get()
	e.refreshBest()
}

// initCell builds, improves and evaluates the individual of one cell.
// Initialisation runs a local search per individual — seconds of work on
// large instances — so cancellation is polled here too; a cancelled
// engine still leaves every cell fully evaluated.
func (e *engine) initCell(i int, initial []schedule.Schedule, base schedule.Schedule, frac float64, r *rng.Source) {
	if e.adopt != nil {
		// Cache-aware resume: the caller's live State becomes the cell,
		// derived data and all. No construction, no RNG draws — exactly
		// like the i < len(initial) clone path below.
		e.pop[i] = e.adopt[i]
	} else {
		var s schedule.Schedule
		switch {
		case i < len(initial):
			s = initial[i].Clone()
		case base != nil && i == 0:
			s = base.Clone()
		case base != nil:
			s = base.Clone()
			schedule.Perturb(s, e.in, r, frac)
		default:
			s = schedule.NewRandom(e.in, r)
		}
		e.pop[i] = schedule.NewState(e.in, s)
	}
	if !e.budget.Cancelled() {
		e.cfg.LocalSearch.Improve(e.pop[i], e.cfg.Objective, e.cfg.LSIterations, r)
	}
	e.fit[i] = e.cfg.Objective.Of(e.pop[i])
}

func (e *engine) refreshBest() {
	for i, f := range e.fit {
		if !e.best.Ok() || f < e.best.Fitness() {
			e.best.Note(e.pop[i], f)
		}
	}
}

// releaseScratches returns every checked-out workspace to the pool, so a
// shared pool (RunPooled) hands them to the next run on the instance.
func (e *engine) releaseScratches() {
	e.pool.Put(e.scratch)
	e.scratch = nil
	for k := range e.draws {
		e.pool.Put(e.draws[k].scratch)
		e.draws[k].scratch = nil
	}
	e.draws = nil
}

func (e *engine) run(budget run.Budget, obs run.Observer, name string) run.Result {
	defer e.stopWorkers()
	defer e.releaseScratches()
	start := time.Now()
	iter := 0
	emit := func() {
		if obs != nil {
			obs(run.Progress{
				Elapsed:   time.Since(start),
				Iteration: iter,
				Fitness:   e.best.Fitness(),
				Makespan:  e.best.Makespan(),
				Flowtime:  e.best.Flowtime(),
			})
		}
	}
	emit()
	for !budget.Done(iter, start) {
		switch {
		case e.cfg.Synchronous:
			e.iterateBatch(iter, true)
		case e.cfg.Workers > 0:
			e.iterateBatch(iter, false)
		default:
			e.iterateAsync()
		}
		iter++
		emit()
	}
	return run.Result{
		Best:       e.best.Schedule(),
		Fitness:    e.best.Fitness(),
		Makespan:   e.best.Makespan(),
		Flowtime:   e.best.Flowtime(),
		Iterations: iter,
		Evals:      e.evals,
		Elapsed:    time.Since(start),
		Algorithm:  name,
	}
}

// recombineInto computes one recombination offspring for cell c into the
// scratch workspace s (Propose: crossover into s.Buf; Improve: local
// search on s.St). It selects SolutionsToRecombine distinct parents from
// the neighborhood with the configured selector and recombines the two
// fittest. fitAt reads fitness of a cell (differs between async, which
// sees fresh values, and sync, which sees the frozen generation). Returns
// the child's fitness.
func (e *engine) recombineInto(c int, s *evalpool.Scratch, popAt func(int) *schedule.State, fitAt func(int) float64, r *rng.Source) float64 {
	sel := operators.SelectDistinctInto(e.cfg.Selector, e.cfg.SolutionsToRecombine, e.nb.Of[c], fitAt, r, s.Idx)
	s.Idx = sel
	// Two fittest of S.
	p1, p2 := sel[0], sel[1]
	if fitAt(p2) < fitAt(p1) {
		p1, p2 = p2, p1
	}
	for _, x := range sel[2:] {
		switch {
		case fitAt(x) < fitAt(p1):
			p2, p1 = p1, x
		case fitAt(x) < fitAt(p2):
			p2 = x
		}
	}
	a, b := popAt(p1), popAt(p2)
	e.cfg.Crossover.Cross(a.ScheduleView(), b.ScheduleView(), s.Buf, r)
	s.St.SetScheduleFrom(s.Buf, a, b)
	e.cfg.LocalSearch.Improve(s.St, e.cfg.Objective, e.cfg.LSIterations, r)
	return e.cfg.Objective.Of(s.St)
}

// mutateInto copies cell c into the scratch workspace, applies the
// mutation operator and local search. Returns the offspring fitness.
func (e *engine) mutateInto(c int, s *evalpool.Scratch, popAt func(int) *schedule.State, r *rng.Source) float64 {
	s.St.CopyFrom(popAt(c))
	e.cfg.Mutator.Mutate(s.St, r)
	e.cfg.LocalSearch.Improve(s.St, e.cfg.Objective, e.cfg.LSIterations, r)
	return e.cfg.Objective.Of(s.St)
}

// replace commits offspring dst (fitness f) into cell c when the
// replacement policy allows (Commit of the offspring pipeline).
func (e *engine) replace(c int, dst *schedule.State, f float64) {
	if e.cfg.AddOnlyIfBetter && f >= e.fit[c] {
		return
	}
	e.pop[c].CopyFrom(dst)
	e.fit[c] = f
	e.best.Note(dst, f)
}

// iterateAsync runs one asynchronous iteration per Algorithm 1: the
// recombination pass followed by the mutation pass, each on its own sweep
// order, with replacements visible immediately. Cancellation (and only
// cancellation — time/iteration bounds stay iteration-granular for
// determinism) is polled per update, since one full iteration of local
// searches can cost seconds on large instances.
func (e *engine) iterateAsync() {
	popAt := func(i int) *schedule.State { return e.pop[i] }
	fitAt := func(i int) float64 { return e.fit[i] }
	for k := 0; k < e.cfg.Recombinations; k++ {
		if e.budget.Cancelled() {
			return
		}
		c := e.recOrd.Next()
		f := e.recombineInto(c, e.scratch, popAt, fitAt, e.r)
		e.evals++
		e.replace(c, e.scratch.St, f)
	}
	for k := 0; k < e.cfg.Mutations; k++ {
		if e.budget.Cancelled() {
			return
		}
		c := e.mutOrd.Next()
		f := e.mutateInto(c, e.scratch, popAt, e.r)
		e.evals++
		e.replace(c, e.scratch.St, f)
	}
}
