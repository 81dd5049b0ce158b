package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"gridcma/internal/cma"
	"gridcma/internal/etc"
	"gridcma/internal/localsearch"
	"gridcma/internal/operators"
	"gridcma/internal/rng"
	"gridcma/internal/run"
	"gridcma/internal/schedule"
)

// batchWorkload is a cMA run over a set of instances, each to a fixed
// iteration budget, so the schedules depend only on the seed. A run makes
// round(--seconds / passSeconds) passes over the set, each with its own
// engine seeds (and, for generated instances, its own instances):
// averaging over passes keeps the seed-to-seed spread of cpu_to_target_s
// small. passSeconds sizes the work, it is not how long a pass takes:
// at --seconds 12 paper-braun makes 3 passes and its runs take about
// 19 s. cvb-large follows one search trajectory per pass, whose
// iteration to target varies with a coefficient of variation of about
// 0.25, so it needs 20 passes for a steady cpu_to_target_s; it stops
// each at its target to afford them, and its runs take about 35 s.
type batchWorkload struct {
	iters       int
	passSeconds float64
	// stopAtTarget ends each run at the iteration that reaches the
	// target instead of at the iteration budget, which then only bounds a
	// miss. The final schedule is the first one at or below the target.
	stopAtTarget bool
	config       func() cma.Config
	// build makes the cases of one pass from the workload seed.
	build func(seed uint64, pass int) ([]*batchCase, error)
}

// batchCase is one instance of a batch workload.
type batchCase struct {
	name   string
	in     *etc.Instance
	seed   uint64  // engine seed
	target float64 // makespan the run must reach
	// startRel, when set, replaces target by this multiple of the first
	// best makespan the run reports.
	startRel float64
	lbMk     float64 // makespan lower bound
	lbFl     float64 // flowtime lower bound
}

// passSeed derives the seed of pass p, item i from the workload seed.
func passSeed(seed uint64, p, i int) uint64 {
	return rng.New(seed ^ uint64(p)<<32 ^ uint64(i)<<48).Uint64()
}

// braunTargets are the makespan targets of the paper-braun workload, as
// multiples of each instance's makespan lower bound. Each is 1.10 times
// the median final best makespan of 60 engine seeds at the 40-iteration
// budget. The margin is wide because a run now and then sticks in a poor
// local optimum: the worst of the 60 ends 4 to 9% below its target, and
// the median run reaches it at iteration 5 to 16.
var braunTargets = map[string]float64{
	"u_c_hihi.0": 2.9949, "u_c_hilo.0": 2.3013, "u_c_lohi.0": 2.8716, "u_c_lolo.0": 2.3064,
	"u_i_hihi.0": 1.2374, "u_i_hilo.0": 1.1552, "u_i_lohi.0": 1.1925, "u_i_lolo.0": 1.1484,
	"u_s_hihi.0": 1.7402, "u_s_hilo.0": 1.4852, "u_s_lohi.0": 1.7401, "u_s_lolo.0": 1.4741,
}

// cvbTarget sets the cvb-large makespan target at this multiple of the
// best makespan of the initial population (the first Progress report),
// not at a multiple of the lower bound. The bound is loose on consistent
// instances by a factor that varies with the instance, and the initial
// population's quality varies with it: over 156 runs, a bound-relative
// target spread the reaching iteration with a coefficient of variation of
// 0.38, this one 0.26. The median run reaches it at iteration 38, the
// slowest at 71, within the 90-iteration budget. Deeper targets did not
// spread less over the 48 runs tried at 0.955 (coefficient of variation
// 0.22, slowest at iteration 76).
const cvbTarget = 0.965

var paperBraun = batchWorkload{
	iters:       40,
	passSeconds: 4,
	config:      cma.DefaultConfig,
	build: func(seed uint64, pass int) ([]*batchCase, error) {
		var cases []*batchCase
		for i, class := range etc.AllClasses() {
			name := class.Name(0)
			in, err := etc.GenerateByName(name)
			if err != nil {
				return nil, err
			}
			c := newCase(name, in, passSeed(seed, pass, i))
			c.target = braunTargets[name] * c.lbMk
			cases = append(cases, c)
		}
		return cases, nil
	},
}

var cvbLarge = batchWorkload{
	iters:        90,
	passSeconds:  0.6,
	stopAtTarget: true,
	config: func() cma.Config {
		cfg := cma.DefaultConfig()
		cfg.Width, cfg.Height = 16, 16
		cfg.Workers = runtime.GOMAXPROCS(0)
		return cfg
	},
	build: func(seed uint64, pass int) ([]*batchCase, error) {
		spec := etc.GenSpec{Jobs: 2048, Machs: 64,
			Class: etc.Class{Consistency: etc.Consistent, JobHet: etc.High, MachineHet: etc.High},
			Seed:  passSeed(seed, pass, 0)}
		in, err := spec.Generate()
		if err != nil {
			return nil, err
		}
		c := newCase(spec.String(), in, passSeed(seed, pass, 1))
		c.startRel = cvbTarget
		return []*batchCase{c}, nil
	},
}

// newCase returns the case with its lower bounds; the caller sets the
// target.
func newCase(name string, in *etc.Instance, seed uint64) *batchCase {
	mk, fl := lowerBounds(in)
	return &batchCase{name: name, in: in, seed: seed, lbMk: mk, lbFl: fl}
}

// lowerBounds returns instance-only bounds that hold for every schedule:
// makespan >= max(Σ_j min_m ETC / M, max_j min_m ETC), because the
// machines together must run every job at least at its fastest, and
// flowtime >= Σ_j min_m ETC, because each job finishes no earlier than
// its fastest execution time.
func lowerBounds(in *etc.Instance) (makespan, flowtime float64) {
	sum, longest := 0.0, 0.0
	for j := 0; j < in.Jobs; j++ {
		best := math.Inf(1)
		for m := 0; m < in.Machs; m++ {
			best = min(best, in.At(j, m))
		}
		sum += best
		longest = max(longest, best)
	}
	return max(sum/float64(in.Machs), longest), sum
}

// caseRun is the outcome of one Run call on one case.
type caseRun struct {
	res    run.Result
	final  []schedule.Schedule // traced runs only
	wall   time.Duration       // the Run call
	cpu    time.Duration       // process CPU time during the Run call
	ttt    time.Duration       // Run call to best makespan <= target; -1 if never
	tttCPU time.Duration       // process CPU time over the same span
	gaps   []time.Duration     // between successive Progress calls
	// scale turns cpu and tttCPU into CPU time at the reference speed
	// (speedometer.scale); 1 in traced runs, which do not measure it.
	scale float64
}

// batchTrace holds the tracing state of one traced pass: the wrappers
// read the current parent span (the cMA phase the observer last opened)
// when they start a call.
type batchTrace struct {
	tr       *Tracer
	run      int
	parent   atomic.Uint64
	improved atomic.Int64
}

func (bt *batchTrace) span(name string) Span { return bt.tr.Begin(bt.run, name, bt.parent.Load()) }

// wrap returns cfg with every layer the benchmark times replaced by a
// span-recording wrapper around the configured implementation. The
// wrappers forward each call unchanged, so the run is the same.
func (bt *batchTrace) wrap(cfg cma.Config) cma.Config {
	cfg.Selector = tracedSelector{cfg.Selector, bt}
	cfg.Crossover = tracedCrossover{cfg.Crossover, bt}
	cfg.Mutator = tracedMutator{cfg.Mutator, bt}
	cfg.LocalSearch = tracedLS{cfg.LocalSearch, bt}
	if seed := cfg.SeedHeuristic; seed != nil {
		cfg.SeedHeuristic = func(in *etc.Instance) schedule.Schedule {
			sp := bt.span("heuristics.seed")
			defer bt.tr.End(sp)
			return seed(in)
		}
	}
	return cfg
}

type tracedSelector struct {
	operators.Selector
	bt *batchTrace
}

func (w tracedSelector) Select(c []int, fit func(int) float64, r *rng.Source) int {
	sp := w.bt.span("operators.select")
	defer w.bt.tr.End(sp)
	return w.Selector.Select(c, fit, r)
}

type tracedCrossover struct {
	operators.Crossover
	bt *batchTrace
}

func (w tracedCrossover) Cross(a, b, child schedule.Schedule, r *rng.Source) {
	sp := w.bt.span("operators.cross")
	w.Crossover.Cross(a, b, child, r)
	w.bt.tr.End(sp)
}

type tracedMutator struct {
	operators.Mutator
	bt *batchTrace
}

func (w tracedMutator) Mutate(st *schedule.State, r *rng.Source) {
	sp := w.bt.span("operators.mutate")
	w.Mutator.Mutate(st, r)
	w.bt.tr.End(sp)
}

type tracedLS struct {
	localsearch.Method
	bt *batchTrace
}

func (w tracedLS) Improve(st *schedule.State, o schedule.Objective, iters int, r *rng.Source) {
	before := o.Of(st)
	sp := w.bt.span("localsearch.improve")
	w.Method.Improve(st, o, iters, r)
	w.bt.tr.End(sp)
	if o.Of(st) < before {
		w.bt.improved.Add(1)
	}
}

// runCase runs the cMA once on c. Untraced, sp runs the reference loop
// at the start and then between iterations, and the run's times leave
// it out. With bt non-nil (and sp nil) the layers are wrapped and the
// Run call is split into spans: cma.init up to the first Progress, then
// one cma.iter per iteration.
func runCase(c *batchCase, cfg cma.Config, iters int, stopAtTarget bool, sp *speedometer, bt *batchTrace) (caseRun, error) {
	var root, phase Span
	if bt != nil {
		root = bt.tr.Begin(bt.run, "cma.run", 0)
		phase = bt.tr.Begin(bt.run, "cma.init", root.ID)
		bt.parent.Store(phase.ID)
		cfg = bt.wrap(cfg)
	}
	s, err := cma.New(cfg)
	if err != nil {
		return caseRun{}, err
	}
	out := caseRun{ttt: -1, tttCPU: -1, scale: 1}
	if sp == nil {
		sp = newSpeedometer() // never sampled: its clock is the plain one
	} else {
		sp.sample()
	}
	mark := sp.mark()
	budget := run.Budget{MaxIterations: iters}
	stop := func() {}
	if stopAtTarget {
		// Cancelled from the observer, between iterations: the engine
		// checks the budget before it starts the next one, so where the
		// run stops depends only on the seed.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		budget, stop = budget.WithContext(ctx), cancel
	}
	target := c.target
	var wall0, cpu0, last time.Duration
	first := true
	obs := func(p run.Progress) {
		now, cpu := sp.clock()
		if first {
			first = false
			if c.startRel > 0 {
				target = c.startRel * p.Makespan
			}
		} else {
			out.gaps = append(out.gaps, now-last)
		}
		last = now
		if out.ttt < 0 && p.Makespan <= target {
			out.ttt, out.tttCPU = now-wall0, cpu-cpu0
			stop()
		}
		if bt != nil {
			bt.tr.End(phase)
			phase = bt.tr.Begin(bt.run, "cma.iter", root.ID)
			bt.parent.Store(phase.ID)
		} else {
			sp.tick()
		}
	}
	wall0, cpu0 = sp.clock()
	if bt == nil {
		out.res = s.Run(c.in, budget, c.seed, obs)
	} else {
		// The same engine run, also returning the final population.
		out.res, out.final = s.RunWithPopulation(c.in, budget, c.seed, obs, nil)
	}
	wall, cpu := sp.clock()
	out.wall, out.cpu = wall-wall0, cpu-cpu0
	if bt != nil {
		// The phase opened by the last Progress holds no work.
		bt.tr.End(root)
	} else {
		out.scale = sp.scale(mark, sp.mark())
	}
	return out, nil
}

// checkCase verifies one run's best schedule: it is valid and its
// makespan and flowtime, recomputed from scratch, match what Run
// reported.
func checkCase(c *batchCase, r caseRun) error {
	if err := r.res.Best.Validate(c.in); err != nil {
		return fmt.Errorf("%s: invalid best schedule: %v", c.name, err)
	}
	st := schedule.NewState(c.in, r.res.Best)
	if !relClose(st.Makespan(), r.res.Makespan) || !relClose(st.Flowtime(), r.res.Flowtime) {
		return fmt.Errorf("%s: reported makespan/flowtime %v/%v, recomputed %v/%v",
			c.name, r.res.Makespan, r.res.Flowtime, st.Makespan(), st.Flowtime())
	}
	return nil
}

func relClose(a, b float64) bool { return math.Abs(a-b) <= 1e-9*max(math.Abs(a), math.Abs(b), 1) }

// runBatch runs workload w. Untraced, it makes round(seconds /
// passSeconds) passes, at least one. Traced, it runs the first pass
// untraced and then traced, checks that the traced pass reproduces the
// untraced schedules byte for byte, and reports the per-layer metrics.
func runBatch(w batchWorkload, o opts) (*outcome, error) {
	cfg := w.config()
	out := newOutcome()
	passes := max(1, int(math.Round(o.seconds.Seconds()/w.passSeconds)))
	if o.trace {
		passes = 1
	}

	// Set-up: build the inputs of every pass several times; setup_s is
	// the median CPU time at the reference speed.
	sp := newSpeedometer()
	var cases [][]*batchCase
	var setups, setupWalls []float64
	for k := 0; k < setupRepeats; k++ {
		sp.sample()
		wall0, cpu0 := sp.clock()
		cases = make([][]*batchCase, passes)
		for p := range cases {
			cs, err := w.build(o.seed, p)
			if err != nil {
				return nil, err
			}
			cases[p] = cs
		}
		wall, cpu := sp.clock()
		setups = append(setups, (cpu - cpu0).Seconds())
		setupWalls = append(setupWalls, (wall - wall0).Seconds())
	}
	setupScale := sp.scale(0, sp.mark())
	goroutines := runtime.NumGoroutine()

	// Per case position, the time to target of each pass; per run, its
	// evaluation rate.
	ttts := make([][]float64, len(cases[0]))
	tttRaws := make([][]float64, len(cases[0]))
	tttWalls := make([][]float64, len(cases[0]))
	var rates, rateRaws, rateWalls, scales, gaps, mkRatios, flRatios []float64
	runs := make([][]caseRun, passes)
	for p, pass := range cases {
		for i, c := range pass {
			r, err := runCase(c, cfg, w.iters, w.stopAtTarget, sp, nil)
			if err != nil {
				return nil, err
			}
			runs[p] = append(runs[p], r)
			out.attempt(r.ttt >= 0)
			if err := checkCase(c, r); err != nil {
				out.wrong(err.Error())
			}
			ttt, tttCPU := r.ttt, r.tttCPU
			if ttt < 0 {
				fmt.Fprintf(os.Stderr, "perfbench: %s pass %d missed its target: best makespan %v\n", c.name, p, r.res.Makespan)
				ttt, tttCPU = r.wall, r.cpu // a miss costs the whole budget
			}
			ttts[i] = append(ttts[i], tttCPU.Seconds()*r.scale)
			tttRaws[i] = append(tttRaws[i], tttCPU.Seconds())
			tttWalls[i] = append(tttWalls[i], ttt.Seconds())
			rates = append(rates, float64(r.res.Evals)/(r.cpu.Seconds()*r.scale))
			rateRaws = append(rateRaws, float64(r.res.Evals)/r.cpu.Seconds())
			rateWalls = append(rateWalls, float64(r.res.Evals)/r.wall.Seconds())
			scales = append(scales, r.scale)
			gaps = append(gaps, msOf(r.gaps)...)
			mkRatios = append(mkRatios, r.res.Makespan/c.lbMk)
			flRatios = append(flRatios, r.res.Flowtime/c.lbFl)
		}
	}
	heap := liveHeapMB(goroutines)

	sumMeans := func(xss [][]float64) float64 {
		sum := 0.0
		for _, xs := range xss {
			sum += mean(xs)
		}
		return sum
	}
	out.e2e = map[string]float64{
		"setup_s":          median(setups) * setupScale,
		"cpu_to_target_s":  sumMeans(ttts),
		"ops_per_cpu_s":    median(rates),
		"makespan_over_lb": geomean(mkRatios),
		"flowtime_over_lb": geomean(flRatios),
		"heap_mb":          heap,
	}
	out.note("host_speed", median(scales), "ratio")
	out.note("setup_raw_cpu_s", median(setups), "s")
	out.note("cpu_to_target_raw_s", sumMeans(tttRaws), "s")
	out.note("ops_per_raw_cpu_s", median(rateRaws), "1/s")
	out.note("setup_wall_s", median(setupWalls), "s")
	out.note("time_to_target_s", sumMeans(tttWalls), "s")
	out.note("evals_per_s", median(rateWalls), "1/s")
	out.note("iteration_p50_ms", percentile(gaps, 0.50), "ms")
	out.note("iteration_p99_ms", percentile(gaps, 0.99), "ms")
	out.note("passes", float64(passes), "count")
	out.note("error_rate", out.errorRate(), "ratio")

	if o.trace {
		if err := traceBatch(w, cfg, cases[0], runs[0], setups, out, o); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// traceBatch runs the traced pass and fills the per-layer metrics.
func traceBatch(w batchWorkload, cfg cma.Config, cases []*batchCase, untraced []caseRun, setups []float64, out *outcome, o opts) error {
	tr := newTracer()
	improved := int64(0)
	var tracedWall, untracedWall time.Duration
	for i, c := range cases {
		bt := &batchTrace{tr: tr, run: i}
		r, err := runCase(c, cfg, w.iters, w.stopAtTarget, nil, bt)
		if err != nil {
			return err
		}
		out.attempt(r.ttt >= 0)
		if !r.res.Best.Equal(untraced[i].res.Best) {
			out.wrong(fmt.Sprintf("%s: traced best schedule differs from the untraced one", c.name))
		}
		improved += bt.improved.Load()
		tracedWall += r.wall
		untracedWall += untraced[i].wall
		postRun(tr, i, c, cfg, r.final)
	}

	sum := tr.Summary()
	get := func(name string) *spanSum {
		if s := sum[name]; s != nil {
			return s
		}
		return &spanSum{}
	}
	// Busy time of the wrapped calls made inside iterations (not init).
	spans := tr.Spans()
	iterIDs := map[uint64]bool{}
	for _, s := range spans {
		if s.Name == "cma.iter" {
			iterIDs[s.ID] = true
		}
	}
	var busy time.Duration
	for _, s := range spans {
		switch s.Name {
		case "operators.select", "operators.cross", "operators.mutate", "localsearch.improve":
			if iterIDs[s.Parent] {
				busy += s.Dur()
			}
		}
	}
	iter := get("cma.iter")
	core := time.Duration(max(cfg.Workers, 1)) * iter.Total
	ls := get("localsearch.improve")

	l := out.layers
	l["etc.build_s"] = median(setups)
	l["heuristics.seed_s"] = get("heuristics.seed").Total.Seconds()
	l["cma.init_s"] = get("cma.init").Total.Seconds()
	l["cma.iter_ms"] = median(msOf(iter.Durs))
	l["cma.util"] = 0.0
	if core > 0 { // a run stopped at its first Progress has no iterations
		l["cma.util"] = busy.Seconds() / core.Seconds()
	}
	l["cma.other_core_s"] = (core - busy).Seconds()
	for _, op := range []string{"select", "cross", "mutate"} {
		s := get("operators." + op)
		l["operators."+op+"_calls"] = float64(s.Count)
		l["operators."+op+"_s"] = s.Total.Seconds()
	}
	l["localsearch.calls"] = float64(ls.Count)
	l["localsearch.busy_s"] = ls.Total.Seconds()
	l["localsearch.improved_frac"] = float64(improved) / float64(max(ls.Count, 1))
	l["localsearch.cold_us"] = meanUs(get("localsearch.cold").Durs)
	l["localsearch.warm_us"] = meanUs(get("localsearch.warm").Durs)
	l["schedule.rebuild_us"] = meanUs(get("schedule.rebuild").Durs)
	l["trace.overhead_s"] = (tracedWall - untracedWall).Seconds()
	return writeSpans(tr, o)
}

// postRun times the State layer on the run's final population: a
// SetSchedule rebuild, then Improve on the freshly built state (cold
// caches), then Improve again on the same state (warm caches).
func postRun(tr *Tracer, runID int, c *batchCase, cfg cma.Config, final []schedule.Schedule) {
	root := tr.Begin(runID, "post", 0)
	st := schedule.NewState(c.in, final[0])
	for i, s := range final {
		r := rng.New(c.seed ^ uint64(i))
		sp := tr.Begin(runID, "schedule.rebuild", root.ID)
		st.SetSchedule(s)
		tr.End(sp)
		sp = tr.Begin(runID, "localsearch.cold", root.ID)
		cfg.LocalSearch.Improve(st, cfg.Objective, cfg.LSIterations, r)
		tr.End(sp)
		sp = tr.Begin(runID, "localsearch.warm", root.ID)
		cfg.LocalSearch.Improve(st, cfg.Objective, cfg.LSIterations, r)
		tr.End(sp)
	}
	tr.End(root)
}

func meanUs(ds []time.Duration) float64 {
	us := msOf(ds)
	for i := range us {
		us[i] *= 1e3
	}
	return mean(us)
}
