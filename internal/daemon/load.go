package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"gridcma/internal/etc"
	"gridcma/internal/eventlog"
	"gridcma/internal/heuristics"
	"gridcma/internal/retry"
	"gridcma/internal/rng"
	"gridcma/internal/schedule"
)

// ColdCheck compares the live warm-started schedule against a cold
// re-solve of the same job/machine set: extract a clean instance, seed
// with MCT, improve with the daemon's own method run to its local
// optimum. WallMs is the full cold cost — matrix extraction, seeding,
// state construction and converged search — i.e. what a scheduler
// without the warm-start path would pay to reschedule the grid from
// scratch at an admission. The asymmetric budget is the point of the
// comparison: a re-solve that stops after a handful of swaps is not a
// re-solve, while the warm path is always near its local optimum and
// absorbs each admission delta with a constant-bounded touch-up — the
// convergence cost was amortised across every earlier window.
type ColdCheck struct {
	Jobs         int     `json:"jobs"`
	Machines     int     `json:"machines"`
	Iters        int     `json:"iters"` // convergence cap handed to the search
	WallMs       float64 `json:"wall_ms"`
	ColdMakespan float64 `json:"cold_makespan"`
	ColdFlowtime float64 `json:"cold_flowtime"`
	WarmMakespan float64 `json:"warm_makespan"`
	WarmFlowtime float64 `json:"warm_flowtime"`
}

// ColdResolve runs the cold baseline against the current live set. The
// grid is read, never mutated. Returns false when there is nothing to
// solve (no live jobs or no alive machines).
func (g *Grid) ColdResolve() (ColdCheck, bool) {
	t0 := time.Now()
	in, _ := g.LiveInstance()
	if in == nil {
		return ColdCheck{}, false
	}
	st := schedule.NewState(in, heuristics.MCT(in))
	// One swap per live job caps the convergence run; LMCTS (and every
	// descent method here) stops on its own at the first iteration with
	// no improving candidate, so the cap only bites on pathological
	// plateaus.
	iters := in.Jobs
	if iters < g.cfg.LSIters {
		iters = g.cfg.LSIters
	}
	if g.cfg.LSIters > 0 {
		r := rng.New(g.cfg.Seed ^ 0xc01dca11 ^ g.counters.Admits)
		g.ls.Improve(st, g.obj, iters, r)
	} else {
		iters = 0
	}
	wall := time.Since(t0)
	wmk, wfl := g.Quality()
	return ColdCheck{
		Jobs:         in.Jobs,
		Machines:     in.Machs,
		Iters:        iters,
		WallMs:       wall.Seconds() * 1e3,
		ColdMakespan: st.Makespan(),
		ColdFlowtime: st.Flowtime(),
		WarmMakespan: wmk,
		WarmFlowtime: wfl,
	}, true
}

// LoadConfig parameterises the synthetic load harness: a client that
// drives a running daemon over its real HTTP API with a deterministic
// open-loop workload, keeping roughly LiveTarget jobs in flight.
type LoadConfig struct {
	// BaseURL of the daemon, e.g. "http://127.0.0.1:8437".
	BaseURL string `json:"base_url"`
	// Jobs is the total number of submissions to replay.
	Jobs int `json:"jobs"`
	// Machines joined before the load starts.
	Machines int `json:"machines"`
	// LiveTarget is the steady-state number of in-flight jobs; the oldest
	// jobs beyond it are completed in batches.
	LiveTarget int `json:"live_target"`
	// Batch is the submission batch size per HTTP request.
	Batch int `json:"batch"`
	// ColdEvery samples a cold re-solve comparison every N batches
	// (0 disables).
	ColdEvery int `json:"cold_every"`
	// Seed drives the workload generator (job bases, machine speeds).
	Seed uint64 `json:"seed"`
	// TaskRange and MachRange bound the generated bases and multipliers.
	TaskRange int `json:"task_range"`
	MachRange int `json:"mach_range"`
	// CVB selects the frontier generator's gamma task-base model instead
	// of small uniform integers: "hi" or "lo" (CV 0.6 / 0.1 around mean
	// etc.GenTaskMean). Empty keeps the legacy uniform workload; the CVB
	// stream is seeded independently, so enabling it does not perturb the
	// machine-speed draws.
	CVB string `json:"cvb,omitempty"`
	// FailEvery triggers a machine-failure storm every N batches: one
	// random alive machine fails mid-load and a replacement joins (when
	// the grid has slot headroom; otherwise the fleet stays shrunk until
	// the next admission recycles the slot). 0 disables storms.
	FailEvery int `json:"fail_every,omitempty"`
}

// LoadRow is one benchmark artifact row: scale, throughput, placement
// latency and the warm-vs-cold comparison.
type LoadRow struct {
	Jobs       int `json:"jobs"`
	Machines   int `json:"machines"`
	LiveTarget int `json:"live_target"`
	Window     int `json:"window"`
	// Workload names the task-base model: "uniform" or "cvb-hi"/"cvb-lo".
	Workload string `json:"workload"`

	ElapsedS     float64 `json:"elapsed_s"`
	ThroughputPS float64 `json:"throughput_jobs_per_s"`
	Admits       uint64  `json:"admits"`
	Placed       uint64  `json:"placed"`

	LatP50Ms  float64 `json:"latency_p50_ms"`
	LatP99Ms  float64 `json:"latency_p99_ms"`
	LatMeanMs float64 `json:"latency_mean_ms"`

	WarmAdmitP50Ms  float64 `json:"warm_admit_p50_ms"`
	WarmAdmitP99Ms  float64 `json:"warm_admit_p99_ms"`
	WarmAdmitMeanMs float64 `json:"warm_admit_mean_ms"`

	// Fsync is the daemon's WAL durability policy during the run.
	Fsync string `json:"fsync,omitempty"`
	// Storms counts machine-failure storms injected by the harness;
	// Rejected429 counts submissions the daemon pushed back on (each was
	// retried after the advertised Retry-After).
	Storms      int    `json:"storms,omitempty"`
	Rejected429 uint64 `json:"rejected_429,omitempty"`

	ColdSamples    int     `json:"cold_samples"`
	ColdMeanMs     float64 `json:"cold_mean_ms"`
	WarmSpeedup    float64 `json:"warm_speedup"`
	WarmMakespan   float64 `json:"warm_makespan"`
	ColdMakespan   float64 `json:"cold_makespan"`
	MakespanRatio  float64 `json:"makespan_warm_over_cold"`
	WarmFlowtime   float64 `json:"warm_flowtime"`
	ColdFlowtime   float64 `json:"cold_flowtime"`
	FlowtimeRatio  float64 `json:"flowtime_warm_over_cold"`
	FinalSnapshotB int     `json:"final_snapshot_bytes"`
}

// LoadReport is the BENCH_gridd.json document.
type LoadReport struct {
	Name      string    `json:"name"`
	Generated string    `json:"generated"`
	GoArch    string    `json:"goarch,omitempty"`
	Rows      []LoadRow `json:"rows"`
}

// loadClient is a thin JSON client over the daemon API.
type loadClient struct {
	base   string
	c      *http.Client
	rej429 uint64
}

// errBackpressure tags a 429 so the retry policy keeps waiting it out.
var errBackpressure = errors.New("daemon: backpressure (429)")

// post sends one JSON request, honouring backpressure through the shared
// retry policy (internal/retry, the same stack the distributed island
// transport rides): a 429 is waited out — the advertised Retry-After,
// capped by Policy.Max so the harness keeps pace with short admission
// windows, 100ms when the server names no delay — and retried without
// bound; every other failure is permanent. The well-behaved-client half
// of the bounded-queue contract.
func (lc *loadClient) post(path string, body, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	p := retry.Policy{
		MaxAttempts: -1, // backpressure can outlast any fixed budget
		Initial:     100 * time.Millisecond,
		Max:         250 * time.Millisecond,
		Jitter:      -1, // keep the harness's pacing deterministic
	}
	return p.Do(context.Background(), func(int) error {
		resp, err := lc.c.Post(lc.base+path, "application/json", bytes.NewReader(b))
		if err != nil {
			return retry.Permanent(err)
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			resp.Body.Close()
			lc.rej429++
			wait, ok := retry.ParseRetryAfter(resp.Header.Get("Retry-After"))
			if !ok || wait <= 0 {
				wait = 100 * time.Millisecond
			}
			return retry.After(errBackpressure, wait)
		}
		if resp.StatusCode != http.StatusOK {
			var e struct {
				Error string `json:"error"`
			}
			json.NewDecoder(resp.Body).Decode(&e)
			resp.Body.Close()
			return retry.Permanent(fmt.Errorf("POST %s: %s (%s)", path, resp.Status, e.Error))
		}
		if out == nil {
			resp.Body.Close()
			return nil
		}
		err = json.NewDecoder(resp.Body).Decode(out)
		resp.Body.Close()
		return retry.Permanent(err)
	})
}

func (lc *loadClient) get(path string, out any) error {
	resp, err := lc.c.Get(lc.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// RunLoad drives the daemon at cfg.BaseURL: joins machines, streams
// cfg.Jobs submissions in batches while completing the oldest jobs
// beyond the live target, samples cold re-solves along the way, and
// summarises the run as one benchmark row. window is the daemon's
// AdmitPending setting, recorded in the row for context.
func RunLoad(cfg LoadConfig, window int, progress func(done int)) (*LoadRow, error) {
	if cfg.Batch <= 0 {
		cfg.Batch = 512
	}
	if cfg.TaskRange <= 0 {
		cfg.TaskRange = 8
	}
	if cfg.MachRange <= 0 {
		cfg.MachRange = 3
	}
	// The CVB base stream is drawn from its own seed offset so that
	// switching workloads leaves the legacy draws (machine multipliers)
	// bit-identical.
	var cvbBase func() float64
	switch cfg.CVB {
	case "":
	case "hi":
		cvbBase = etc.BaseStream(cfg.Seed^0xcbb5eed, etc.High)
	case "lo":
		cvbBase = etc.BaseStream(cfg.Seed^0xcbb5eed, etc.Low)
	default:
		return nil, fmt.Errorf("daemon: load cvb %q: want \"hi\", \"lo\" or empty", cfg.CVB)
	}
	lc := &loadClient{base: cfg.BaseURL, c: &http.Client{Timeout: 5 * time.Minute}}
	r := rng.New(cfg.Seed)

	// Machines join first, as one batch of events; the applied events
	// carry the assigned ids, which the storm injector draws victims from.
	joins := make([]map[string]any, cfg.Machines)
	for i := range joins {
		joins[i] = map[string]any{"type": "join", "mult": float64(1 + r.Intn(cfg.MachRange))}
	}
	var joined []eventlog.Event
	if err := lc.post("/event", joins, &joined); err != nil {
		return nil, err
	}
	alive := make([]uint64, 0, len(joined))
	for _, e := range joined {
		alive = append(alive, e.Mach)
	}

	t0 := time.Now()
	var oldest uint64 = 1 // next job id to complete
	var submitted int
	coldWall := 0.0
	coldN := 0
	batchNo := 0
	storms := 0
	for submitted < cfg.Jobs {
		n := cfg.Batch
		if rem := cfg.Jobs - submitted; rem < n {
			n = rem
		}
		bases := make([]float64, n)
		if cvbBase != nil {
			for i := range bases {
				bases[i] = cvbBase()
			}
		} else {
			for i := range bases {
				bases[i] = float64(1 + r.Intn(cfg.TaskRange))
			}
		}
		var sr SubmitResponse
		if err := lc.post("/submit", SubmitRequest{Bases: bases}, &sr); err != nil {
			return nil, err
		}
		submitted += n
		batchNo++

		// Trim the live set back to target: complete the oldest jobs.
		live := uint64(submitted) - (oldest - 1)
		if over := int(live) - cfg.LiveTarget; over > 0 {
			completes := make([]map[string]any, over)
			for i := 0; i < over; i++ {
				completes[i] = map[string]any{"type": "complete", "job": oldest}
				oldest++
			}
			if err := lc.post("/event", completes, nil); err != nil {
				return nil, err
			}
		}

		// Machine-failure storm: one random alive machine fails, a
		// replacement joins. A join refusal (no slot headroom until the
		// next admission recycles the departed slot) shrinks the fleet —
		// degraded capacity is part of what the storm exercises.
		if cfg.FailEvery > 0 && batchNo%cfg.FailEvery == 0 && len(alive) > 1 {
			k := r.Intn(len(alive))
			victim := alive[k]
			if err := lc.post("/event",
				[]map[string]any{{"type": "fail", "mach": victim}}, nil); err != nil {
				return nil, err
			}
			alive = append(alive[:k], alive[k+1:]...)
			var rj []eventlog.Event
			if err := lc.post("/event", []map[string]any{
				{"type": "join", "mult": float64(1 + r.Intn(cfg.MachRange))},
			}, &rj); err == nil && len(rj) == 1 {
				alive = append(alive, rj[0].Mach)
			}
			storms++
		}

		if cfg.ColdEvery > 0 && batchNo%cfg.ColdEvery == 0 {
			var cc ColdCheck
			if err := lc.get("/coldcheck", &cc); err == nil && cc.Jobs > 0 {
				coldWall += cc.WallMs
				coldN++
			}
		}
		if progress != nil {
			progress(submitted)
		}
	}
	// Drain: close the final window so every submission is placed.
	if err := lc.post("/admit", struct{}{}, nil); err != nil {
		return nil, err
	}
	elapsed := time.Since(t0).Seconds()

	var final ColdCheck
	if err := lc.get("/coldcheck", &final); err != nil {
		return nil, err
	}
	var stats Stats
	if err := lc.get("/stats", &stats); err != nil {
		return nil, err
	}
	snapResp, err := lc.c.Get(cfg.BaseURL + "/snapshot")
	if err != nil {
		return nil, err
	}
	var snapBuf bytes.Buffer
	if _, err := snapBuf.ReadFrom(snapResp.Body); err != nil {
		return nil, err
	}
	snapResp.Body.Close()

	workload := "uniform"
	if cfg.CVB != "" {
		workload = "cvb-" + cfg.CVB
	}
	row := &LoadRow{
		Jobs:            cfg.Jobs,
		Machines:        cfg.Machines,
		LiveTarget:      cfg.LiveTarget,
		Window:          window,
		Workload:        workload,
		ElapsedS:        elapsed,
		ThroughputPS:    float64(cfg.Jobs) / elapsed,
		Admits:          stats.Counters.Admits,
		Placed:          stats.Counters.Placed,
		LatP50Ms:        stats.Latency.P50Ms,
		LatP99Ms:        stats.Latency.P99Ms,
		LatMeanMs:       stats.Latency.MeanMs,
		WarmAdmitP50Ms:  stats.AdmitWall.P50Ms,
		WarmAdmitP99Ms:  stats.AdmitWall.P99Ms,
		WarmAdmitMeanMs: stats.AdmitWall.MeanMs,
		Fsync:           stats.Fsync,
		Storms:          storms,
		Rejected429:     lc.rej429,
		ColdSamples:     coldN,
		WarmMakespan:    final.WarmMakespan,
		ColdMakespan:    final.ColdMakespan,
		WarmFlowtime:    final.WarmFlowtime,
		ColdFlowtime:    final.ColdFlowtime,
		FinalSnapshotB:  snapBuf.Len(),
	}
	if coldN > 0 {
		row.ColdMeanMs = coldWall / float64(coldN)
		if stats.AdmitWall.MeanMs > 0 {
			row.WarmSpeedup = row.ColdMeanMs / stats.AdmitWall.MeanMs
		}
	}
	if final.ColdMakespan > 0 {
		row.MakespanRatio = final.WarmMakespan / final.ColdMakespan
	}
	if final.ColdFlowtime > 0 {
		row.FlowtimeRatio = final.WarmFlowtime / final.ColdFlowtime
	}
	return row, nil
}
