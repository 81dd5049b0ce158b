package cma

import (
	"runtime"
	"strings"
	"testing"

	"gridcma/internal/cell"
	"gridcma/internal/heuristics"
	"gridcma/internal/localsearch"
	"gridcma/internal/run"
	"gridcma/internal/schedule"
)

// parCfg returns a quick block-parallel configuration.
func parCfg(workers int) Config {
	cfg := quickCfg()
	cfg.Workers = workers
	return cfg
}

// The defining property of the partitioned asynchronous engine: the same
// seed yields a byte-identical best schedule for every worker count.
func TestParallelAsyncDeterministicAcrossWorkerCounts(t *testing.T) {
	in := testInstance(21)
	var ref run.Result
	for i, workers := range []int{1, 2, 8} {
		s, err := New(parCfg(workers))
		if err != nil {
			t.Fatal(err)
		}
		res := s.Run(in, run.Budget{MaxIterations: 8}, 99, nil)
		if i == 0 {
			ref = res
			continue
		}
		if !ref.Best.Equal(res.Best) {
			t.Fatalf("workers=%d changed the best schedule", workers)
		}
		if ref.Fitness != res.Fitness || ref.Makespan != res.Makespan || ref.Flowtime != res.Flowtime {
			t.Fatalf("workers=%d changed objectives: %v vs %v", workers, ref.Fitness, res.Fitness)
		}
		if ref.Evals != res.Evals {
			t.Fatalf("workers=%d changed eval count: %d vs %d", workers, ref.Evals, res.Evals)
		}
	}
}

// Worker-count invariance must hold under every local-search method: the
// memetic step now scores its neighbors with the speculative probes
// (State.FitnessAfterMove / FitnessAfterSwap) instead of apply+revert,
// and the probe path has to be as schedule-deterministic as the old one
// for any number of workers.
func TestParallelAsyncDeterministicAcrossLocalSearches(t *testing.T) {
	in := testInstance(26)
	methods := []localsearch.Method{
		localsearch.LM{},
		localsearch.SLM{},
		localsearch.LMCTS{},
		localsearch.SampledLMCTS{Samples: 16},
	}
	for _, ls := range methods {
		var ref run.Result
		for i, workers := range []int{1, 2, 8} {
			cfg := parCfg(workers)
			cfg.LocalSearch = ls
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res := s.Run(in, run.Budget{MaxIterations: 6}, 13, nil)
			if i == 0 {
				ref = res
				continue
			}
			if !ref.Best.Equal(res.Best) {
				t.Fatalf("%s: workers=%d changed the best schedule", ls.Name(), workers)
			}
			if ref.Fitness != res.Fitness || ref.Makespan != res.Makespan || ref.Flowtime != res.Flowtime {
				t.Fatalf("%s: workers=%d changed objectives", ls.Name(), workers)
			}
		}
	}
}

// Worker-count invariance must hold for every neighborhood pattern the
// partitioner supports, including the degenerate panmictic one.
func TestParallelAsyncDeterministicAcrossPatterns(t *testing.T) {
	in := testInstance(22)
	for _, p := range []cell.Pattern{cell.L5, cell.C9, cell.C13, cell.Panmictic} {
		var ref run.Result
		for i, workers := range []int{1, 4} {
			cfg := parCfg(workers)
			cfg.Pattern = p
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res := s.Run(in, run.Budget{MaxIterations: 4}, 7, nil)
			if i == 0 {
				ref = res
			} else if !ref.Best.Equal(res.Best) || ref.Fitness != res.Fitness {
				t.Fatalf("pattern %v: workers changed the result", p)
			}
		}
	}
}

func TestParallelAsyncImprovesAndIsNamed(t *testing.T) {
	in := testInstance(23)
	s, err := New(parCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "cMA-par" {
		t.Fatalf("name %q, want cMA-par", s.Name())
	}
	res := s.Run(in, run.Budget{MaxIterations: 30}, 42, nil)
	if res.Algorithm != "cMA-par" {
		t.Fatalf("result algorithm %q", res.Algorithm)
	}
	if err := res.Best.Validate(in); err != nil {
		t.Fatal(err)
	}
	seed := schedule.NewState(in, heuristics.LJFRSJFR(in))
	seedFit := schedule.DefaultObjective.Of(seed)
	if res.Fitness >= seedFit {
		t.Errorf("cMA-par fitness %v did not improve on LJFR-SJFR %v", res.Fitness, seedFit)
	}
}

// The parallel engine must keep the monotone best-ever invariant that the
// sequential engine guarantees, including without elitist replacement.
func TestParallelAsyncMonotoneBest(t *testing.T) {
	for _, addIfBetter := range []bool{true, false} {
		cfg := parCfg(4)
		cfg.AddOnlyIfBetter = addIfBetter
		s, _ := New(cfg)
		var fits []float64
		s.Run(testInstance(24), run.Budget{MaxIterations: 12}, 3, func(p run.Progress) {
			fits = append(fits, p.Fitness)
		})
		if len(fits) != 13 {
			t.Fatalf("got %d observations, want 13", len(fits))
		}
		for i := 1; i < len(fits); i++ {
			if fits[i] > fits[i-1]+1e-9 {
				t.Fatalf("addIfBetter=%v: best regressed at %d", addIfBetter, i)
			}
		}
	}
}

// A migration-seeded parallel run (the island model's path) must also be
// worker-count invariant.
func TestParallelAsyncRunWithPopulationDeterministic(t *testing.T) {
	in := testInstance(25)
	seedCfg := quickCfg()
	seedS, _ := New(seedCfg)
	_, popIn := seedS.RunWithPopulation(in, run.Budget{MaxIterations: 2}, 5, nil, nil)

	var refRes run.Result
	var refPop []schedule.Schedule
	for i, workers := range []int{1, 3} {
		s, _ := New(parCfg(workers))
		res, pop := s.RunWithPopulation(in, run.Budget{MaxIterations: 4}, 11, nil, popIn)
		if i == 0 {
			refRes, refPop = res, pop
			continue
		}
		if !refRes.Best.Equal(res.Best) {
			t.Fatal("workers changed the migrated-run best")
		}
		for k := range refPop {
			if !refPop[k].Equal(pop[k]) {
				t.Fatalf("workers changed final population at cell %d", k)
			}
		}
	}
}

// TestParallelWorkersExitWithRun: the persistent workers are done by
// the time Run returns, so none still holds the engine's population.
// On one P, a worker that Run did not wait for has at best been woken
// from its task-channel receive when Run returns, so it still shows in
// the stack dump; one that Run waited for has run to its end. The
// goroutine count must come back to its value before the run.
func TestParallelWorkersExitWithRun(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	in := testInstance(21)
	s, err := New(parCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	goroutines := func() int {
		for i := 0; i < 100; i++ {
			runtime.Gosched()
		}
		return runtime.NumGoroutine()
	}
	before := goroutines()
	s.Run(in, run.Budget{MaxIterations: 3}, 7, nil)
	buf := make([]byte, 1<<20)
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "startWorkers") {
			t.Fatalf("a worker outlived Run:\n%s", g)
		}
	}
	if after := goroutines(); after != before {
		t.Fatalf("%d goroutines after a Workers=2 Run, %d before", after, before)
	}
}
