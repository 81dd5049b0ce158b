package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef declares one reported metric. BENCHMARK.json declares the
// same names and units (TestBenchmarkJSONMatches keeps them in step).
type metricDef struct {
	name, unit string
	// on names the workloads that exercise the metric: "batch" (paper-braun,
	// cvb-large), "gridd" (both daemon workloads), "repl"
	// (gridd-replicated only) or "all". A per-layer metric reads 0 on a
	// workload that does not exercise its layer.
	on string
	// moves names the end-to-end metric the layer metric should move, and
	// on which workload.
	moves string
}

// endToEnd are measured with tracing off. Every workload reports each of
// them; how a workload defines one is documented in README.md. The time
// figures are process CPU time scaled to the host's reference speed, not
// wall time (see speed.go); the raw CPU and wall clock figures are
// printed beside them as notes.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", on: "all"},
	{name: "cpu_to_target_s", unit: "s", on: "all"},
	{name: "ops_per_cpu_s", unit: "1/s", on: "all"},
	{name: "makespan_over_lb", unit: "ratio", on: "all"},
	{name: "flowtime_over_lb", unit: "ratio", on: "all"},
	{name: "heap_mb", unit: "MB", on: "all"},
}

// perLayer come from the traced run. This table is the layer-to-metric
// map: which end-to-end metric (or wall clock note) each layer metric
// should move, and on which workload.
var perLayer = []metricDef{
	{"etc.build_s", "s", "batch", "setup_s, batch workloads"},
	{"heuristics.seed_s", "s", "batch", "cpu_to_target_s, both batch workloads; expected to be small"},
	{"cma.init_s", "s", "batch", "cpu_to_target_s; counts more on cvb-large (256 cells)"},
	{"cma.iter_ms", "ms", "batch", "cpu_to_target_s and iteration_p50_ms, batch workloads"},
	{"cma.util", "ratio", "batch", "evals_per_s on cvb-large; on paper-braun the engine's own share"},
	{"cma.other_core_s", "s", "batch", "ops_per_cpu_s on cvb-large; on paper-braun the engine's own share"},
	{"operators.select_calls", "count", "batch", "ops_per_cpu_s; predicted below 1%, so no end-to-end change"},
	{"operators.select_s", "s", "batch", "ops_per_cpu_s; predicted below 1%, so no end-to-end change"},
	{"operators.cross_calls", "count", "batch", "ops_per_cpu_s; predicted below 1%, so no end-to-end change"},
	{"operators.cross_s", "s", "batch", "ops_per_cpu_s; predicted below 1%, so no end-to-end change"},
	{"operators.mutate_calls", "count", "batch", "ops_per_cpu_s; predicted below 1%, so no end-to-end change"},
	{"operators.mutate_s", "s", "batch", "ops_per_cpu_s; predicted below 1%, so no end-to-end change"},
	{"localsearch.calls", "count", "batch", "ops_per_cpu_s and cpu_to_target_s, both batch workloads"},
	{"localsearch.busy_s", "s", "batch", "ops_per_cpu_s and cpu_to_target_s, both batch workloads"},
	{"localsearch.improved_frac", "ratio", "batch", "ops_per_cpu_s and cpu_to_target_s, both batch workloads"},
	{"localsearch.cold_us", "us", "batch", "ops_per_cpu_s on cvb-large (the cold-cache penalty)"},
	{"localsearch.warm_us", "us", "batch", "ops_per_cpu_s on cvb-large (the cold-cache penalty)"},
	{"schedule.rebuild_us", "us", "batch", "ops_per_cpu_s on cvb-large, less on paper-braun"},
	{"http.submit_p50_ms", "ms", "gridd", "ops_per_cpu_s, both gridd workloads"},
	{"http.event_p50_ms", "ms", "gridd", "ops_per_cpu_s, both gridd workloads"},
	{"http.stats_p90_ms", "ms", "gridd", "stats_p90_ms, both gridd workloads"},
	{"daemon.apply_submit_us", "us", "gridd", "ops_per_cpu_s on gridd-solo"},
	{"daemon.apply_complete_us", "us", "gridd", "ops_per_cpu_s on gridd-solo"},
	{"daemon.admit_p99_ms", "ms", "gridd", "place_p99_ms on both gridd workloads"},
	{"daemon.digest_us", "us", "gridd", "ops_per_cpu_s and repl_lag_p99_ms on gridd-replicated; no change on gridd-solo"},
	{"daemon.digest_share", "ratio", "gridd", "ops_per_cpu_s and repl_lag_p99_ms on gridd-replicated; no change on gridd-solo"},
	{"daemon.stats_ms", "ms", "gridd", "stats_p90_ms, both gridd workloads"},
	{"eventlog.append_us", "us", "gridd", "ops_per_cpu_s on gridd-solo"},
	{"eventlog.fsync_ms", "ms", "gridd", "ops_per_cpu_s on gridd-solo"},
	{"eventlog.bytes_per_event", "bytes", "gridd", "repl_lag_p99_ms on gridd-replicated"},
	{"eventlog.decode_us", "us", "gridd", "repl_lag_p99_ms on gridd-replicated"},
	{"repl.lag_p99_ms", "ms", "repl", "repl_lag_p99_ms on gridd-replicated (the same figure, traced)"},
	{"repl.steps", "count", "repl", "repl_lag_p99_ms on gridd-replicated"},
	{"repl.step_ms", "ms", "repl", "repl_lag_p99_ms on gridd-replicated"},
	{"repl.events_per_step", "count", "repl", "repl_lag_p99_ms on gridd-replicated"},
	{"repl.empty_step_frac", "ratio", "repl", "repl_lag_p99_ms on gridd-replicated"},
	{"trace.overhead_s", "s", "all", "nothing: traced wall time minus untraced wall time for the same work"},
}

// outcome collects what one workload run measured and checked.
type outcome struct {
	attempted, failed int
	wrongs            []string // failed output checks
	e2e, layers       map[string]float64
	notes             []note // human-readable extras, printed before the result
}

type note struct {
	name  string
	value float64
	unit  string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
}

// attempt counts one operation, failed unless ok.
func (o *outcome) attempt(ok bool) {
	o.attempted++
	if !ok {
		o.failed++
	}
}

// wrong records a failed output check.
func (o *outcome) wrong(msg string) { o.wrongs = append(o.wrongs, msg) }

func (o *outcome) note(name string, v float64, unit string) {
	o.notes = append(o.notes, note{name, v, unit})
}

func (o *outcome) errorRate() float64 {
	return float64(o.failed) / float64(max(o.attempted, 1))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// exercises reports whether workload kind k exercises metrics marked on.
func exercises(on string, kinds []string) bool {
	if on == "all" {
		return true
	}
	for _, k := range kinds {
		if k == on {
			return true
		}
	}
	return false
}

// collect builds the result's metric set from defs: every metric the
// workload exercises must have been measured, and the rest read 0.
func collect(defs []metricDef, got map[string]float64, kinds []string) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := got[d.name]
		if !ok && exercises(d.on, kinds) {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s = %v", d.name, v)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	var extra []string
	for name := range got {
		if _, ok := out[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("undeclared metrics %v", extra)
	}
	return out, nil
}
