package daemon

import (
	"testing"

	"gridcma/internal/eventlog"
)

// BenchmarkAdmitSteady measures one steady-state admission window at the
// 2048-live x 64-machine ladder point: 512 completes drain, 512 fresh
// submissions, one admit — only the admit is timed. This is the warm
// half of the BENCH_gridd warm-vs-cold comparison.
func BenchmarkAdmitSteady(b *testing.B) {
	cfg := DefaultConfig()
	cfg.JobCap = 8192
	g, err := NewGrid(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for m := 0; m < 64; m++ {
		if err := g.Apply(eventlog.Event{Type: eventlog.Join, Mach: g.NextMachID(), Mult: float64(1 + m%3)}); err != nil {
			b.Fatal(err)
		}
	}
	submit := func(n int) {
		for i := 0; i < n; i++ {
			if err := g.Apply(eventlog.Event{Type: eventlog.Submit, Job: g.NextJobID(), Base: float64(1 + i%8)}); err != nil {
				b.Fatal(err)
			}
		}
	}
	admit := func() {
		if err := g.Apply(eventlog.Event{Type: eventlog.Admit}); err != nil {
			b.Fatal(err)
		}
	}
	submit(2048)
	admit()
	oldest := uint64(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for k := 0; k < 512; k++ {
			if err := g.Apply(eventlog.Event{Type: eventlog.Complete, Job: oldest}); err != nil {
				b.Fatal(err)
			}
			oldest++
		}
		submit(512)
		b.StartTimer()
		admit()
	}
}

// BenchmarkDigest compares the two digests on a grid with 2048 placed
// jobs on 64 machines: the audit SHA-256 walk and a read of the
// maintained state hash (after one submit, the per-event case).
func BenchmarkDigest(b *testing.B) {
	cfg := DefaultConfig()
	g, err := NewGrid(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for m := 0; m < 64; m++ {
		if err := g.Apply(eventlog.Event{Type: eventlog.Join, Mach: g.NextMachID(), Mult: float64(1 + m%3)}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 2048; i++ {
		if err := g.Apply(eventlog.Event{Type: eventlog.Submit, Job: g.NextJobID(), Base: float64(1 + i%8)}); err != nil {
			b.Fatal(err)
		}
	}
	if err := g.Apply(eventlog.Event{Type: eventlog.Admit}); err != nil {
		b.Fatal(err)
	}
	b.Run("audit", func(b *testing.B) {
		for b.Loop() {
			g.Digest()
		}
	})
	b.Run("state", func(b *testing.B) {
		g.StateHash()
		for b.Loop() {
			g.rehashSlot(0)
			g.StateHash()
		}
	})
}
