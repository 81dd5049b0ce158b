package schedule

import (
	"testing"

	"gridcma/internal/etc"
	"gridcma/internal/rng"
)

// benchState builds a random evaluated state of the given shape.
func benchState(b *testing.B, jobs, machs int) (*State, *rng.Source) {
	b.Helper()
	in := etc.Generate(etc.Class{Consistency: etc.Inconsistent, JobHet: etc.High, MachineHet: etc.High},
		0, etc.GenerateOptions{Seed: 1, Jobs: jobs, Machs: machs})
	r := rng.New(7)
	return NewState(in, NewRandom(in, r)), r
}

// BenchmarkMoveLarge measures the incremental single-job reassignment on a
// large CVB-scale instance, where per-machine job lists are long enough for
// the remove/insert bookkeeping to dominate.
func BenchmarkMoveLarge(b *testing.B) {
	st, r := benchState(b, 2048, 64)
	in := st.Instance()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Move(r.Intn(in.Jobs), r.Intn(in.Machs))
	}
}

// BenchmarkSwapLarge measures the two-job exchange primitive of LMCTS on a
// large instance.
func BenchmarkSwapLarge(b *testing.B) {
	st, r := benchState(b, 2048, 64)
	in := st.Instance()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Swap(r.Intn(in.Jobs), r.Intn(in.Jobs))
	}
}

// BenchmarkFitnessAfterMoveProbe measures the speculative single-move
// probe on the paper's 512×16 shape — the unit of work SLM/LM/SA/tabu
// now spend per candidate instead of an apply+revert Move pair. Must
// report 0 allocs/op (enforced in CI).
func BenchmarkFitnessAfterMoveProbe(b *testing.B) {
	st, r := benchState(b, 512, 16)
	in := st.Instance()
	o := DefaultObjective
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.FitnessAfterMove(o, r.Intn(in.Jobs), r.Intn(in.Machs))
	}
}

// BenchmarkFitnessAfterSwapProbe measures the speculative swap probe
// (LMCTS's accept test). Must report 0 allocs/op (enforced in CI).
func BenchmarkFitnessAfterSwapProbe(b *testing.B) {
	st, r := benchState(b, 512, 16)
	in := st.Instance()
	o := DefaultObjective
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.FitnessAfterSwap(o, r.Intn(in.Jobs), r.Intn(in.Jobs))
	}
}

// BenchmarkFitnessAfterMoveSweep measures the batched all-targets move
// kernel on the paper's 512×16 shape — one sweep replaces the M−1 scalar
// probes of a steepest-move scan. Must report 0 allocs/op (enforced in
// CI alongside the probe benchmarks).
func BenchmarkFitnessAfterMoveSweep(b *testing.B) {
	st, r := benchState(b, 512, 16)
	in := st.Instance()
	o := DefaultObjective
	st.FitnessAfterMoveSweep(o, 0) // warm the state-owned buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.FitnessAfterMoveSweep(o, r.Intn(in.Jobs))
	}
}

// BenchmarkMoveScanSweepProbe measures the amortised move probe of the
// SA/tabu candidate loops: one context build plus a batch of cached
// probes. Must report 0 allocs/op (enforced in CI).
func BenchmarkMoveScanSweepProbe(b *testing.B) {
	st, r := benchState(b, 512, 16)
	in := st.Instance()
	o := DefaultObjective
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan := st.BeginMoveScan(o)
		for k := 0; k < 16; k++ {
			scan.FitnessAfterMove(r.Intn(in.Jobs), r.Intn(in.Machs))
		}
	}
}

// BenchmarkMoveEvaluateRevert is the scratch-path baseline the probes
// replace: apply the move, read the fitness, revert.
func BenchmarkMoveEvaluateRevert(b *testing.B) {
	st, r := benchState(b, 512, 16)
	in := st.Instance()
	o := DefaultObjective
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, to := r.Intn(in.Jobs), r.Intn(in.Machs)
		from := st.Assign(j)
		st.Move(j, to)
		_ = o.Of(st)
		st.Move(j, from)
	}
}
