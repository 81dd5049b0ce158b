package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gridcma/internal/etc"
)

// tinyBatch shrinks a batch workload to one small generated instance per
// pass with a target every run reaches.
func tinyBatch(w batchWorkload) batchWorkload {
	w.iters = 3
	w.passSeconds = 1
	w.build = func(seed uint64, pass int) ([]*batchCase, error) {
		spec := etc.GenSpec{Jobs: 64, Machs: 4, Class: etc.Class{Consistency: etc.Inconsistent, JobHet: etc.High, MachineHet: etc.High},
			Seed: passSeed(seed, pass, 0)}
		in, err := spec.Generate()
		if err != nil {
			return nil, err
		}
		c := newCase(spec.String(), in, passSeed(seed, pass, 1))
		c.target = 100 * c.lbMk
		return []*batchCase{c}, nil
	}
	return w
}

// tinyGridd shrinks a gridd workload's fleet, live set and load.
func tinyGridd(w griddWorkload) griddWorkload {
	w.machines, w.batch, w.admitAt, w.live, w.jobsPerSecond = 8, 16, 32, 128, 200
	w.statsEvery = 20 * time.Millisecond
	return w
}

func checkOutcome(t *testing.T, out *outcome, kinds []string, trace bool) {
	t.Helper()
	if len(out.wrongs) > 0 {
		t.Fatalf("output checks failed: %v", out.wrongs)
	}
	if out.attempted == 0 || out.failed != 0 {
		t.Fatalf("attempted %d, failed %d", out.attempted, out.failed)
	}
	if _, err := collect(endToEnd, out.e2e, kinds); err != nil {
		t.Fatal(err)
	}
	for name, v := range out.e2e {
		if !(v > 0) {
			t.Errorf("end-to-end %s = %v, want > 0", name, v)
		}
	}
	if trace {
		if _, err := collect(perLayer, out.layers, kinds); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSmoke(t *testing.T) {
	for _, tc := range []struct {
		name  string
		run   func(opts) (*outcome, error)
		kinds []string
	}{
		{"paper-braun", func(o opts) (*outcome, error) { return runBatch(tinyBatch(paperBraun), o) }, []string{"batch"}},
		{"cvb-large", func(o opts) (*outcome, error) { return runBatch(tinyBatch(cvbLarge), o) }, []string{"batch"}},
		{"gridd-solo", func(o opts) (*outcome, error) { return runGridd(tinyGridd(griddSolo), o) }, []string{"gridd"}},
		{"gridd-replicated", func(o opts) (*outcome, error) { return runGridd(tinyGridd(griddReplicated), o) }, []string{"gridd", "repl"}},
	} {
		for _, trace := range []bool{false, true} {
			t.Run(tc.name+map[bool]string{false: "", true: "/traced"}[trace], func(t *testing.T) {
				dir := t.TempDir()
				o := opts{workload: tc.name, seed: 3, seconds: 2 * time.Second, trace: trace, dir: dir}
				out, err := tc.run(o)
				if err != nil {
					t.Fatal(err)
				}
				checkOutcome(t, out, tc.kinds, trace)
				if trace {
					if _, err := os.Stat(filepath.Join(dir, "spans", tc.name+"-s3.jsonl")); err != nil {
						t.Fatal(err)
					}
				}
				// The daemons' scratch directories are removed.
				if ents, _ := os.ReadDir(filepath.Join(dir, "tmp")); len(ents) != 0 {
					t.Fatalf("%d leftover daemon directories", len(ents))
				}
			})
		}
	}
}

func TestRealMainRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"},
		{"--workload", "gridd-solo", "--seconds", "0"},
		{"--workload", "gridd-solo", "--trace", "2"},
	} {
		var stdout, stderr bytes.Buffer
		if code := realMain(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables in
// step: the same workloads, and the same metric names in the same order
// with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	match := func(what string, declared []struct{ Name, Unit string }, defs []metricDef) {
		var got, want []string
		for _, d := range declared {
			got = append(got, d.Name+" "+d.Unit)
		}
		for _, d := range defs {
			want = append(want, d.name+" "+d.unit)
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%s metrics:\nBENCHMARK.json %v\nbenchmark      %v", what, got, want)
		}
	}
	match("end_to_end", b.EndToEnd, endToEnd)
	match("per_layer", b.PerLayer, perLayer)
}
