// Command perfbench is the repository's end-to-end benchmark. One
// process runs one workload:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads: paper-braun and cvb-large run the cMA over fixed instance
// sets to fixed iteration budgets; gridd-solo and gridd-replicated drive
// an in-process gridd daemon over loopback HTTP. With --trace 0 it
// reports the end-to-end metrics; with --trace 1 it repeats the work with
// span-recording wrappers around each layer, reports the per-layer
// metrics and writes the spans under --dir. The last line of standard
// output is the JSON result; the process exits non-zero when an output
// check fails. See README.md for the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// setupRepeats is how many times a run sets up its inputs; setup_s is
// the median.
const setupRepeats = 9

type opts struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	dir      string // the benchmark's files: spans, daemon logs
}

// workloads maps each workload name to its runner and the metric kinds
// it exercises.
var workloads = map[string]struct {
	run   func(opts) (*outcome, error)
	kinds []string
}{
	"paper-braun":      {func(o opts) (*outcome, error) { return runBatch(paperBraun, o) }, []string{"batch"}},
	"cvb-large":        {func(o opts) (*outcome, error) { return runBatch(cvbLarge, o) }, []string{"batch"}},
	"gridd-solo":       {func(o opts) (*outcome, error) { return runGridd(griddSolo, o) }, []string{"gridd"}},
	"gridd-replicated": {func(o opts) (*outcome, error) { return runGridd(griddReplicated, o) }, []string{"gridd", "repl"}},
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o opts
	var seconds float64
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: paper-braun, cvb-large, gridd-solo or gridd-replicated")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&seconds, "seconds", 12, "sizes the work: about how long the timed phase runs (README.md)")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	fs.StringVar(&o.dir, "dir", ".bench_build", "directory for the benchmark's files: the traced run's spans and the daemons' logs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[o.workload]
	if !ok || seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of paper-braun, cvb-large, gridd-solo, gridd-replicated), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	o.seconds = time.Duration(seconds * float64(time.Second))
	o.trace = trace == 1

	st := newStamp(o)
	out, err := w.run(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	defs, got := endToEnd, out.e2e
	if o.trace {
		defs, got = perLayer, out.layers
	}
	metrics, err := collect(defs, got, w.kinds)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}

	stampJSON, _ := json.Marshal(st) // strings and numbers always marshal
	fmt.Fprintf(stdout, "stamp %s\n", stampJSON)
	for _, n := range out.notes {
		fmt.Fprintf(stdout, "note %s %.6g %s\n", n.name, n.value, n.unit)
	}
	for _, d := range defs {
		fmt.Fprintf(stdout, "metric %s %.6g %s", d.name, metrics[d.name].Value, d.unit)
		if d.moves != "" {
			fmt.Fprintf(stdout, " (moves %s)", d.moves)
		}
		fmt.Fprintln(stdout)
	}
	for _, msg := range out.wrongs {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", msg)
	}
	res := result{Correct: len(out.wrongs) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: metrics}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// stamp identifies a result: what ran, where and when.
type stamp struct {
	Name       string `json:"name"`
	Time       string `json:"time"`
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
	Trace      bool   `json:"trace"`
}

func newStamp(o opts) stamp {
	return stamp{
		Name:       o.workload,
		Time:       time.Now().UTC().Format(time.RFC3339),
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     commit(),
		Seed:       o.seed,
		Trace:      o.trace,
	}
}

// commit returns the VCS revision the binary was built from, when the
// build recorded one (a build inside a git checkout does).
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	switch {
	case rev == "":
		return "unknown"
	case dirty:
		return rev + "+modified"
	}
	return rev
}

// writeSpans writes the traced run's spans to <dir>/spans.
func writeSpans(tr *Tracer, o opts) error {
	dir := filepath.Join(o.dir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return tr.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-s%d.jsonl", o.workload, o.seed)), newStamp(o))
}
