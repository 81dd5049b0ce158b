// Benchmarks regenerating every table and figure of the paper's
// evaluation section, plus ablations of the cMA's design choices
// (asynchronous vs synchronous updating, local search depth, the
// makespan weight λ, heuristic seeding, local search cost). Each benchmark runs the corresponding experiment at a
// reduced, iteration-bounded budget (the full 90 s × 10-runs protocol is
// `cmd/experiments -full`); custom metrics expose the headline quantity of
// the table or figure so `go test -bench` output shows the reproduced
// shape at a glance.
package gridcma_test

import (
	"fmt"
	"runtime"
	"testing"

	"gridcma/internal/cma"
	"gridcma/internal/etc"
	"gridcma/internal/experiments"
	"gridcma/internal/island"
	"gridcma/internal/localsearch"
	"gridcma/internal/pareto"
	"gridcma/internal/run"
	"gridcma/internal/schedule"
	"gridcma/internal/stats"
)

// benchOpts is the reduced protocol every table bench uses.
func benchOpts() experiments.Options {
	return experiments.Options{Budget: run.Budget{MaxIterations: 8}, Runs: 1, Seed: 1}
}

// BenchmarkTable2Makespan regenerates Table 2 (makespan: Braun GA vs cMA)
// and reports how many of the 12 instances the cMA wins.
func BenchmarkTable2Makespan(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table2(benchOpts())
		wins := 0
		for _, r := range rows {
			if r.CMA < r.BraunGA {
				wins++
			}
		}
		b.ReportMetric(float64(wins), "cMA-wins/12")
	}
}

// BenchmarkTable3GAs regenerates Table 3 (makespan: Carretero–Xhafa GA and
// Struggle GA vs cMA).
func BenchmarkTable3GAs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table3(benchOpts())
		wins := 0
		for _, r := range rows {
			if r.CMA < r.SteadyStateGA && r.CMA < r.StruggleGA {
				wins++
			}
		}
		b.ReportMetric(float64(wins), "cMA-wins/12")
	}
}

// BenchmarkTable4Flowtime regenerates Table 4 (flowtime: LJFR-SJFR vs cMA)
// and reports the mean improvement percentage (paper: 22–90 %).
func BenchmarkTable4Flowtime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table4(benchOpts())
		deltas := make([]float64, len(rows))
		for k, r := range rows {
			deltas[k] = r.Delta
		}
		b.ReportMetric(stats.Summarize(deltas).Mean, "meanΔ%")
	}
}

// BenchmarkTable5FlowtimeGA regenerates Table 5 (flowtime: Struggle GA vs
// cMA; paper: cMA wins all 12).
func BenchmarkTable5FlowtimeGA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table5(benchOpts())
		wins := 0
		for _, r := range rows {
			if r.CMA < r.StruggleGA {
				wins++
			}
		}
		b.ReportMetric(float64(wins), "cMA-wins/12")
	}
}

// BenchmarkRobustness regenerates the §5.1 robustness study and reports
// the worst relative standard deviation across instances (paper: ~1 %).
func BenchmarkRobustness(b *testing.B) {
	o := experiments.Options{Budget: run.Budget{MaxIterations: 8}, Runs: 3, Seed: 1}
	for i := 0; i < b.N; i++ {
		rows := experiments.Robustness(o)
		worst := 0.0
		for _, r := range rows {
			if r.RelStd > worst {
				worst = r.RelStd
			}
		}
		b.ReportMetric(100*worst, "worst-relstd%")
	}
}

// figOpts is the reduced protocol of the figure benches.
func figOpts() experiments.Options {
	return experiments.Options{Budget: run.Budget{MaxIterations: 8}, Runs: 1, Seed: 1}
}

// reportFinals exposes each series' final makespan as a bench metric.
func reportFinals(b *testing.B, series []experiments.Series) {
	b.Helper()
	for _, s := range series {
		b.ReportMetric(s.Final(), s.Label+"-makespan")
	}
}

// BenchmarkFig2LocalSearch regenerates Fig. 2 (LM vs SLM vs LMCTS).
func BenchmarkFig2LocalSearch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportFinals(b, experiments.Figure2(figOpts()))
	}
}

// BenchmarkFig3Neighborhood regenerates Fig. 3 (Panmictic/L5/L9/C9/C13).
func BenchmarkFig3Neighborhood(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportFinals(b, experiments.Figure3(figOpts()))
	}
}

// BenchmarkFig4Tournament regenerates Fig. 4 (N-tournament, N = 3, 5, 7).
func BenchmarkFig4Tournament(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportFinals(b, experiments.Figure4(figOpts()))
	}
}

// BenchmarkFig5SweepOrder regenerates Fig. 5 (FLS/FRS/NRS).
func BenchmarkFig5SweepOrder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportFinals(b, experiments.Figure5(figOpts()))
	}
}

// --- Ablations ---

func runCMAVariant(b *testing.B, mutate func(*cma.Config)) {
	b.Helper()
	cfg := cma.DefaultConfig()
	mutate(&cfg)
	sched, err := cma.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	in := experiments.Instance("u_c_hihi.0")
	var last run.Result
	for i := 0; i < b.N; i++ {
		last = sched.Run(in, run.Budget{MaxIterations: 10}, 1, nil)
	}
	b.ReportMetric(last.Makespan, "makespan")
	b.ReportMetric(last.Flowtime/1e6, "flowtime-M")
}

// BenchmarkAblationSyncVsAsync contrasts the paper's asynchronous updating
// with the parallel synchronous engine.
func BenchmarkAblationSyncVsAsync(b *testing.B) {
	b.Run("async", func(b *testing.B) {
		runCMAVariant(b, func(c *cma.Config) {})
	})
	b.Run("sync-1worker", func(b *testing.B) {
		runCMAVariant(b, func(c *cma.Config) { c.Synchronous = true; c.Workers = 1 })
	})
	b.Run("sync-4workers", func(b *testing.B) {
		runCMAVariant(b, func(c *cma.Config) { c.Synchronous = true; c.Workers = 4 })
	})
}

// BenchmarkAblationLSDepth varies the local search budget per offspring
// around the tuned value of 5.
func BenchmarkAblationLSDepth(b *testing.B) {
	for _, depth := range []int{1, 5, 20} {
		depth := depth
		b.Run(map[int]string{1: "ls1", 5: "ls5", 20: "ls20"}[depth], func(b *testing.B) {
			runCMAVariant(b, func(c *cma.Config) { c.LSIterations = depth })
		})
	}
}

// BenchmarkAblationLambda varies the makespan weight of the scalarised
// fitness around the tuned 0.75.
func BenchmarkAblationLambda(b *testing.B) {
	for _, l := range []float64{0.5, 0.75, 1.0} {
		l := l
		b.Run(map[float64]string{0.5: "l050", 0.75: "l075", 1.0: "l100"}[l], func(b *testing.B) {
			runCMAVariant(b, func(c *cma.Config) { c.Objective = schedule.Objective{Lambda: l} })
		})
	}
}

// BenchmarkAblationSeeding contrasts the paper's LJFR-SJFR-seeded initial
// population with a fully random one.
func BenchmarkAblationSeeding(b *testing.B) {
	b.Run("ljfr-sjfr", func(b *testing.B) {
		runCMAVariant(b, func(c *cma.Config) {})
	})
	b.Run("random", func(b *testing.B) {
		runCMAVariant(b, func(c *cma.Config) { c.SeedHeuristic = nil })
	})
}

// BenchmarkAblationLocalSearchCost compares the tuned exact LMCTS with the
// sampled variant at equal iteration budgets.
func BenchmarkAblationLocalSearchCost(b *testing.B) {
	b.Run("exact", func(b *testing.B) {
		runCMAVariant(b, func(c *cma.Config) { c.LocalSearch = localsearch.LMCTS{} })
	})
	b.Run("sampled64", func(b *testing.B) {
		runCMAVariant(b, func(c *cma.Config) { c.LocalSearch = localsearch.SampledLMCTS{Samples: 64} })
	})
}

// BenchmarkCMAWallClock measures raw cMA iteration throughput on the
// benchmark instance (iterations/second at the paper's configuration).
func BenchmarkCMAWallClock(b *testing.B) {
	sched, err := cma.New(cma.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	in := experiments.Instance("u_c_hihi.0")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sched.Run(in, run.Budget{MaxIterations: 5}, uint64(i), nil)
		b.ReportMetric(float64(res.Evals)/res.Elapsed.Seconds(), "evals/s")
	}
}

// --- Extensions (paper future work) ---

// BenchmarkLargeInstances exercises the "larger size grid instances"
// future-work direction: CVB-generated grids beyond the 512×16 benchmark,
// scheduled with the sampled-LMCTS cMA. Besides the sequential engine it
// runs the block-parallel engine at Workers = 1 and Workers = GOMAXPROCS
// on an 8×8 population grid — the speedup of par-wN over par-w1 is the
// parallel engine's headline number on multicore hardware, and both rungs
// produce byte-identical schedules.
func BenchmarkLargeInstances(b *testing.B) {
	sizes := []struct {
		name        string
		jobs, machs int
	}{
		{"1024x32", 1024, 32},
		{"2048x64", 2048, 64},
	}
	variants := []struct {
		name    string
		workers int // -1 = sequential engine
	}{
		{"seq", -1},
		{"par-w1", 1},
		{fmt.Sprintf("par-w%d", runtime.GOMAXPROCS(0)), runtime.GOMAXPROCS(0)},
	}
	for _, sz := range sizes {
		sz := sz
		in, err := etc.GenerateCVB(sz.name, etc.CVBOptions{
			Jobs: sz.jobs, Machs: sz.machs, TaskMean: 500, Vtask: 0.6, Vmach: 0.6, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range variants {
			v := v
			b.Run(sz.name+"/"+v.name, func(b *testing.B) {
				cfg := cma.DefaultConfig()
				cfg.LocalSearch = localsearch.SampledLMCTS{Samples: 64}
				if v.workers >= 0 {
					cfg.Width, cfg.Height = 8, 8
					cfg.Workers = v.workers
				}
				sched, err := cma.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				var last run.Result
				for i := 0; i < b.N; i++ {
					last = sched.Run(in, run.Budget{MaxIterations: 5}, 1, nil)
				}
				b.ReportMetric(last.Makespan, "makespan")
			})
		}
	}
}

// BenchmarkIslandVsSingle contrasts the coarse-grained island model (4
// parallel islands, ring migration) with a single cMA at the same
// per-island iteration budget.
func BenchmarkIslandVsSingle(b *testing.B) {
	in := experiments.Instance("u_c_hihi.0")
	b.Run("single", func(b *testing.B) {
		sched, _ := cma.New(cma.DefaultConfig())
		var last run.Result
		for i := 0; i < b.N; i++ {
			last = sched.Run(in, run.Budget{MaxIterations: 10}, 1, nil)
		}
		b.ReportMetric(last.Fitness, "fitness")
	})
	b.Run("island4", func(b *testing.B) {
		sched, err := island.New(island.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		var last run.Result
		for i := 0; i < b.N; i++ {
			last = sched.Run(in, run.Budget{MaxIterations: 10}, 1, nil)
		}
		b.ReportMetric(last.Fitness, "fitness")
	})
}

// BenchmarkMOCellFront measures the multi-objective extension: front size
// and hypervolume per run on the benchmark instance.
func BenchmarkMOCellFront(b *testing.B) {
	in := experiments.Instance("u_i_hihi.0")
	mo, err := pareto.NewMOCellMA(pareto.DefaultMOConfig())
	if err != nil {
		b.Fatal(err)
	}
	ref := pareto.Vec{Makespan: 1e9, Flowtime: 1e12}
	for i := 0; i < b.N; i++ {
		res := mo.Run(in, run.Budget{MaxIterations: 8}, uint64(i))
		b.ReportMetric(float64(res.Front.Len()), "front-size")
		b.ReportMetric(res.Front.Hypervolume(ref)/1e18, "hv-E18")
	}
}
