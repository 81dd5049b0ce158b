// Command bench measures the scheduling engines — wall-clock, solution
// quality and allocation behaviour — and writes the numbers to a
// BENCH_*.json artifact, so the repository accumulates a perf trajectory
// alongside the code.
//
//	bench                 # full matrix, writes BENCH_gridcma.json
//	bench -quick          # CI smoke: tiny budgets, small matrix
//	bench -workers 1,4,8  # explicit worker ladder for the parallel rows
//	bench -out results/   # artifact directory
//	bench -algos cma,cma-par      # row filter (cheap CI subsets)
//
// Every row is one engine run at a fixed iteration budget: the sequential
// cMA, the block-parallel cMA at each requested worker count (same seed —
// the engine guarantees identical schedules, so the speedup column
// compares equal work), and the synchronous engine. Instances cover the
// paper's 512×16 benchmark and larger CVB-generated grids. Allocation
// counts are measured with runtime.MemStats around the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"gridcma"
	"gridcma/internal/etc"
	"gridcma/internal/localsearch"
)

// Row is one measured engine run.
type Row struct {
	Instance    string  `json:"instance"`
	Jobs        int     `json:"jobs"`
	Machs       int     `json:"machs"`
	Algorithm   string  `json:"algorithm"`
	Workers     int     `json:"workers"`
	Iterations  int     `json:"iterations"`
	Seconds     float64 `json:"seconds"`
	Makespan    float64 `json:"makespan"`
	Flowtime    float64 `json:"flowtime"`
	Fitness     float64 `json:"fitness"`
	Evals       int64   `json:"evals"`
	EvalsPerSec float64 `json:"evals_per_sec"`
	Allocs      uint64  `json:"allocs"`
	AllocBytes  uint64  `json:"alloc_bytes"`
	// SpeedupVs1 is wall-clock(workers=1) / wall-clock(this row) for
	// parallel rows of the same (instance, algorithm); 0 when not
	// applicable.
	SpeedupVs1 float64 `json:"speedup_vs_1,omitempty"`
	// IdenticalTo1 reports that the row's best schedule equals the
	// workers=1 schedule — the determinism contract, re-verified on every
	// bench run.
	IdenticalTo1 bool `json:"identical_to_1,omitempty"`
}

// Report is the BENCH_*.json schema.
type Report struct {
	Name       string `json:"name"`
	CreatedAt  string `json:"created_at"`
	GoVersion  string `json:"go"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Quick      bool   `json:"quick"`
	Rows       []Row  `json:"results"`
}

type instanceSpec struct {
	name        string
	jobs, machs int
	in          *gridcma.Instance
}

func main() {
	var (
		out     = flag.String("out", ".", "directory for the BENCH_*.json artifact")
		label   = flag.String("label", "gridcma", "artifact name: BENCH_<label>.json")
		quick   = flag.Bool("quick", false, "tiny budgets and matrix (CI smoke)")
		iters   = flag.Int("iters", 10, "iteration budget per run (quick: 2)")
		seed    = flag.Uint64("seed", 1, "RNG seed shared by every run")
		workers = flag.String("workers", "", "comma-separated worker ladder for cma-par (default 1,GOMAXPROCS)")
		grid    = flag.String("grid", "8x8", "population grid WxH of the measured cMA engines")
		algos   = flag.String("algos", "", "comma-separated row filter (default all): engine names cma, cma-par, cma-sync, sampled-lmcts-batch, sa-sweep, tabu-sweep")

		frontier      = flag.Bool("frontier", false, "run the large-instance ladder instead of the engine matrix; writes BENCH_frontier.json")
		frontierSpecs = flag.String("ladder", "", "comma-separated GenSpec ladder for -frontier (default "+defaultFrontierLadder+")")

		islandDist = flag.Bool("islanddist", false, "measure the distributed island engine (round latency, recovery, degraded quality); writes BENCH_island_dist.json")

		replication = flag.Bool("replication", false, "measure WAL-shipping replication (throughput under followers, lag percentiles, failover gap); writes BENCH_replication.json")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	iterations := *iters
	if *quick {
		iterations = 2
	}
	ladder, err := parseWorkers(*workers)
	if err != nil {
		fatal(err)
	}
	gw, gh, err := parseGrid(*grid)
	if err != nil {
		fatal(err)
	}
	allow, err := parseAlgos(*algos)
	if err != nil {
		fatal(err)
	}

	if *islandDist {
		runIslandDist(*out, *seed, *quick)
		return
	}

	if *replication {
		runReplication(*out, *seed, *quick)
		return
	}

	if *frontier {
		l := *frontierSpecs
		if l == "" {
			l = defaultFrontierLadder
			if *quick {
				l = quickFrontierLadder
			}
		}
		runFrontier(l, *out, gw, gh, iterations, *seed, *quick)
		return
	}

	instances, err := buildInstances(*quick)
	if err != nil {
		fatal(err)
	}

	rep := Report{
		Name:       "gridcma-bench",
		CreatedAt:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      *quick,
	}

	for _, spec := range instances {
		fmt.Printf("instance %s (%d×%d)\n", spec.name, spec.jobs, spec.machs)

		// Sequential asynchronous engine (the paper's algorithm).
		if allow("cma") {
			seqRow, _ := measure(spec, "cma", 0, gw, gh, iterations, *seed)
			rep.Rows = append(rep.Rows, seqRow)
		}

		// Block-parallel ladder; workers=1 is the reference for speedup
		// and for the determinism re-check.
		if allow("cma-par") {
			var ref *Row
			var refBest gridcma.Schedule
			for _, w := range ladder {
				row, best := measure(spec, "cma-par", w, gw, gh, iterations, *seed)
				if ref == nil {
					ref, refBest = &row, best
				} else {
					row.SpeedupVs1 = ref.Seconds / row.Seconds
					row.IdenticalTo1 = best.Equal(refBest)
					if !row.IdenticalTo1 {
						fmt.Fprintf(os.Stderr, "bench: WARNING: cma-par workers=%d diverged from workers=1 on %s\n", w, spec.name)
					}
				}
				rep.Rows = append(rep.Rows, row)
			}
		}

		// Synchronous engine at the widest rung.
		if allow("cma-sync") {
			syncRow, _ := measure(spec, "cma-sync", ladder[len(ladder)-1], gw, gh, iterations, *seed)
			rep.Rows = append(rep.Rows, syncRow)
		}

		// The sweep-native search variants (PR 5), run through the public
		// registry under their frozen-trajectory-preserving new names.
		for _, name := range []string{"sampled-lmcts-batch", "sa-sweep", "tabu-sweep"} {
			if allow(name) {
				rep.Rows = append(rep.Rows, measureNamed(spec, name, iterations, *seed))
			}
		}
	}

	path := filepath.Join(*out, "BENCH_"+*label+".json")
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Println("wrote", path)
}

// measure runs one engine configuration and returns its row plus the best
// schedule (for cross-worker identity checks).
func measure(spec instanceSpec, alg string, workers, gw, gh, iterations int, seed uint64) (Row, gridcma.Schedule) {
	cfg := gridcma.DefaultCMAConfig()
	cfg.Width, cfg.Height = gw, gh
	cfg.Synchronous = alg == "cma-sync"
	cfg.Workers = workers // 0 = sequential asynchronous engine
	// Large instances use the sampled local search, like the large-grid
	// extension benches.
	if spec.jobs > 512 {
		cfg.LocalSearch = localsearch.SampledLMCTS{Samples: 64}
	}
	sched, err := gridcma.NewCMA(cfg)
	if err != nil {
		fatal(err)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := sched.Run(nil, spec.in,
		gridcma.WithMaxIterations(iterations), gridcma.WithSeed(seed))
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		fatal(err)
	}

	row := Row{
		Instance:   spec.name,
		Jobs:       spec.jobs,
		Machs:      spec.machs,
		Algorithm:  sched.Name(),
		Workers:    workers,
		Iterations: res.Iterations,
		Seconds:    elapsed.Seconds(),
		Makespan:   res.Makespan,
		Flowtime:   res.Flowtime,
		Fitness:    res.Fitness,
		Evals:      res.Evals,
		Allocs:     after.Mallocs - before.Mallocs,
		AllocBytes: after.TotalAlloc - before.TotalAlloc,
	}
	if elapsed > 0 {
		row.EvalsPerSec = float64(res.Evals) / elapsed.Seconds()
	}
	fmt.Printf("  %-8s workers=%-2d %8.3fs  makespan %12.1f  evals/s %8.1f  allocs %d\n",
		row.Algorithm, workers, row.Seconds, row.Makespan, row.EvalsPerSec, row.Allocs)
	return row, res.Best
}

// measureNamed runs one registry algorithm by name at the shared budget
// and emits its row — the path of the sweep-native variants, which are
// configured entirely by their registry entries.
func measureNamed(spec instanceSpec, name string, iterations int, seed uint64) Row {
	sched, err := gridcma.New(name)
	if err != nil {
		fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := sched.Run(nil, spec.in,
		gridcma.WithMaxIterations(iterations), gridcma.WithSeed(seed))
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		fatal(err)
	}
	row := Row{
		Instance:   spec.name,
		Jobs:       spec.jobs,
		Machs:      spec.machs,
		Algorithm:  name,
		Iterations: res.Iterations,
		Seconds:    elapsed.Seconds(),
		Makespan:   res.Makespan,
		Flowtime:   res.Flowtime,
		Fitness:    res.Fitness,
		Evals:      res.Evals,
		Allocs:     after.Mallocs - before.Mallocs,
		AllocBytes: after.TotalAlloc - before.TotalAlloc,
	}
	if elapsed > 0 {
		row.EvalsPerSec = float64(res.Evals) / elapsed.Seconds()
	}
	fmt.Printf("  %-20s workers=%-2d %8.3fs  makespan %12.1f  evals/s %8.1f  allocs %d\n",
		row.Algorithm, 0, row.Seconds, row.Makespan, row.EvalsPerSec, row.Allocs)
	return row
}

// parseAlgos builds the row filter: nil/empty selects everything.
func parseAlgos(s string) (func(string) bool, error) {
	if strings.TrimSpace(s) == "" {
		return func(string) bool { return true }, nil
	}
	known := map[string]bool{
		"cma": true, "cma-par": true, "cma-sync": true,
		"sampled-lmcts-batch": true, "sa-sweep": true, "tabu-sweep": true,
	}
	set := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		name := strings.TrimSpace(part)
		if !known[name] {
			return nil, fmt.Errorf("bench: unknown -algos entry %q", name)
		}
		set[name] = true
	}
	return func(name string) bool { return set[name] }, nil
}

func buildInstances(quick bool) ([]instanceSpec, error) {
	specs := []instanceSpec{}
	bench, err := gridcma.BenchmarkInstance("u_c_hihi.0")
	if err != nil {
		return nil, err
	}
	specs = append(specs, instanceSpec{name: "u_c_hihi.0", jobs: bench.Jobs, machs: bench.Machs, in: bench})
	if quick {
		return specs, nil
	}
	for _, sz := range []struct{ jobs, machs int }{{1024, 32}, {2048, 64}} {
		name := fmt.Sprintf("cvb_%dx%d", sz.jobs, sz.machs)
		in, err := etc.GenerateCVB(name, etc.CVBOptions{
			Jobs: sz.jobs, Machs: sz.machs, TaskMean: 500, Vtask: 0.6, Vmach: 0.6, Seed: 1})
		if err != nil {
			return nil, err
		}
		specs = append(specs, instanceSpec{name: name, jobs: sz.jobs, machs: sz.machs, in: in})
	}
	return specs, nil
}

func parseWorkers(s string) ([]int, error) {
	if s == "" {
		n := runtime.GOMAXPROCS(0)
		if n <= 1 {
			return []int{1, 2}, nil // still exercises the parallel executor
		}
		return []int{1, n}, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bench: bad -workers entry %q", part)
		}
		out = append(out, n)
	}
	// The speedup_vs_1 / identical_to_1 columns are defined against the
	// workers=1 rung: sort the ladder and make sure that rung exists.
	sort.Ints(out)
	if out[0] != 1 {
		out = append([]int{1}, out...)
	}
	return out, nil
}

func parseGrid(s string) (w, h int, err error) {
	if _, err := fmt.Sscanf(s, "%dx%d", &w, &h); err != nil {
		return 0, 0, fmt.Errorf("bench: bad -grid %q (want WxH)", s)
	}
	if w < 2 || h < 2 {
		return 0, 0, fmt.Errorf("bench: grid %q too small", s)
	}
	return w, h, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
