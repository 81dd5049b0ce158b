package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"gridcma"
	"gridcma/internal/etc"
	"gridcma/internal/heuristics"
	"gridcma/internal/localsearch"
	"gridcma/internal/schedule"
)

// defaultFrontierLadder is the committed BENCH_frontier.json ladder: the
// top of the historical bench matrix, two intermediate rungs, and the
// 100k×1k frontier in both matrix backings. Consistent hi/hi is the
// hardest CVB class for the critical-machine scan (machine order is
// shared by every job, so the critical machine is contested).
const defaultFrontierLadder = "8192x128:c_hihi:s1,32768x256:c_hihi:s1,100000x1000:c_hihi:s1,100000x1000:c_hihi:s1:f32"

// quickFrontierLadder keeps the CI smoke step under a few seconds while
// still walking the generator + state + engine path end to end.
const quickFrontierLadder = "2048x64:c_hihi:s1,2048x64:c_hihi:s1:f32"

// FrontierRow is one ladder rung of the large-instance benchmark.
type FrontierRow struct {
	Spec     string `json:"spec"`
	Instance string `json:"instance"`
	Jobs     int    `json:"jobs"`
	Machs    int    `json:"machs"`
	Float32  bool   `json:"float32,omitempty"`

	// Build: streaming generation (including Finalize) of the ETC matrix.
	BuildSeconds  float64 `json:"build_seconds"`
	InstanceBytes int     `json:"instance_bytes"`

	// State: footprint of one evaluated schedule.State over the instance.
	StateBytes       int     `json:"state_bytes"`
	StateBytesPerJob float64 `json:"state_bytes_per_job"`

	// Cached scan: one LMCTS iteration on a locally-converged state —
	// the full critical-swap query plus the accept probe of its
	// non-improving winner.
	ConvergeSwaps   int     `json:"converge_swaps"`
	CachedScanNs    float64 `json:"cached_scan_ns_per_iter"`
	CachedScanIters int     `json:"cached_scan_iters"`

	// End to end: the full LMCTS-driven cMA at the shared iteration
	// budget.
	CMASeconds    float64 `json:"cma_seconds"`
	CMAIterations int     `json:"cma_iterations"`
	Evals         int64   `json:"evals"`
	EvalsPerSec   float64 `json:"evals_per_sec"`
	Makespan      float64 `json:"makespan"`
	Flowtime      float64 `json:"flowtime"`
	Allocs        uint64  `json:"allocs"`
	AllocBytes    uint64  `json:"alloc_bytes"`
}

// FrontierReport is the BENCH_frontier.json schema.
type FrontierReport struct {
	Name       string        `json:"name"`
	CreatedAt  string        `json:"created_at"`
	GoVersion  string        `json:"go"`
	CPUs       int           `json:"cpus"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Quick      bool          `json:"quick"`
	Grid       string        `json:"grid"`
	Iterations int           `json:"iterations"`
	Rows       []FrontierRow `json:"results"`
}

// runFrontier walks the ladder and writes BENCH_frontier.json. Each rung
// is generated, footprint-gauged, scan-benchmarked and then run through
// the full cMA — the same engine, same default (LMCTS) memetic step, same
// seed at every size, so the rows compare wall-clock against scale and
// nothing else.
func runFrontier(ladder string, out string, gw, gh, iterations int, seed uint64, quick bool) {
	rep := FrontierReport{
		Name:       "gridcma-frontier",
		CreatedAt:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      quick,
		Grid:       fmt.Sprintf("%dx%d", gw, gh),
		Iterations: iterations,
	}
	for _, spec := range strings.Split(ladder, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		rep.Rows = append(rep.Rows, frontierRung(spec, gw, gh, iterations, seed))
	}
	path := filepath.Join(out, "BENCH_frontier.json")
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

func frontierRung(spec string, gw, gh, iterations int, seed uint64) FrontierRow {
	g, err := etc.ParseGenSpec(spec)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("frontier %s\n", spec)

	start := time.Now()
	in, err := g.Generate()
	if err != nil {
		fatal(err)
	}
	row := FrontierRow{
		Spec: spec, Instance: in.Name,
		Jobs: in.Jobs, Machs: in.Machs, Float32: g.Float32,
		BuildSeconds:  time.Since(start).Seconds(),
		InstanceBytes: in.Bytes(),
	}
	fmt.Printf("  build    %8.3fs  matrix %7.1f MB\n",
		row.BuildSeconds, float64(row.InstanceBytes)/(1<<20))

	o := schedule.DefaultObjective
	st := schedule.NewState(in, heuristics.LJFRSJFR(in))
	ms := st.MemStats()
	row.StateBytes, row.StateBytesPerJob = ms.TotalBytes, ms.BytesPerJob
	fmt.Printf("  state    %7.1f MB  (%.1f B/job)\n",
		float64(ms.TotalBytes)/(1<<20), ms.BytesPerJob)

	// Converged-state scan: converge the LMCTS neighborhood (bounded),
	// then time iterations. On a converged state each iteration is one
	// full critical-swap query plus the accept probe of the non-improving
	// winner.
	const maxConverge = 20000
	f0 := o.Of(st)
	localsearch.LMCTS{}.Improve(st, o, maxConverge, nil)
	for swaps := 0; o.Of(st) < f0 && swaps < 10; swaps++ {
		f0 = o.Of(st)
		row.ConvergeSwaps += maxConverge
		localsearch.LMCTS{}.Improve(st, o, maxConverge, nil)
	}
	scanIters := 2000
	if row.Jobs >= 50000 {
		scanIters = 500
	}
	start = time.Now()
	for i := 0; i < scanIters; i++ {
		localsearch.LMCTS{}.Improve(st, o, 1, nil)
	}
	row.CachedScanNs = float64(time.Since(start).Nanoseconds()) / float64(scanIters)
	row.CachedScanIters = scanIters
	fmt.Printf("  scan     %8.0f ns/iter (converged-state LMCTS step)\n", row.CachedScanNs)

	// End to end: the paper's engine, default (full LMCTS) memetic step,
	// at the shared iteration budget and seed.
	cfg := gridcma.DefaultCMAConfig()
	cfg.Width, cfg.Height = gw, gh
	sched, err := gridcma.NewCMA(cfg)
	if err != nil {
		fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start = time.Now()
	res, err := sched.Run(nil, in,
		gridcma.WithMaxIterations(iterations), gridcma.WithSeed(seed))
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		fatal(err)
	}
	row.CMASeconds = elapsed.Seconds()
	row.CMAIterations = res.Iterations
	row.Evals = res.Evals
	row.Makespan = res.Makespan
	row.Flowtime = res.Flowtime
	row.Allocs = after.Mallocs - before.Mallocs
	row.AllocBytes = after.TotalAlloc - before.TotalAlloc
	if elapsed > 0 {
		row.EvalsPerSec = float64(res.Evals) / elapsed.Seconds()
	}
	fmt.Printf("  cma      %8.3fs  makespan %12.1f  evals/s %8.1f  allocs %d\n",
		row.CMASeconds, row.Makespan, row.EvalsPerSec, row.Allocs)
	return row
}
