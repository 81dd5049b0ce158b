package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"testing"

	"gridcma/internal/eventlog"
	"gridcma/internal/retry"
	"gridcma/internal/rng"
	"gridcma/internal/transport"
)

// scratchStateHash is the from-scratch StateHash: every term recomputed,
// nothing read from the maintained sums.
func scratchStateHash(g *Grid) StateHash {
	sum, pend := g.maintainedSums(nil, nil)
	return sum.add(pend).add(g.readTerm())
}

// hashTrajectory applies events to a grid whose StateHash is maintained
// from the first event and requires the maintained hash to equal the
// from-scratch one after every event.
func hashTrajectory(t *testing.T, cfg Config, events []eventlog.Event) {
	t.Helper()
	g, err := NewGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g.StateHash()
	for i, e := range events {
		e.Seq = uint64(i + 1)
		if err := g.Apply(e); err != nil {
			t.Fatalf("event %d (%+v): %v", i, e, err)
		}
		if got, want := g.StateHash(), scratchStateHash(g); got != want {
			t.Fatalf("event %d (%s): maintained %s, from scratch %s", i, e.Type, got, want)
		}
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestStateHashDifferential checks incremental == from scratch after
// every event of the crashtest, failovertest and simtrace streams.
func TestStateHashDifferential(t *testing.T) {
	t.Run("crashtest", func(t *testing.T) {
		gen := newScriptGen(11, testConfig().MachCap)
		events := make([]eventlog.Event, 400)
		for i := range events {
			events[i] = gen.next()
			if events[i].Type == eventlog.Admit {
				gen.used = len(gen.alive)
			}
		}
		hashTrajectory(t, testConfig(), events)
	})
	t.Run("failovertest", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.Seed = 1
		hashTrajectory(t, cfg, Script(cfg.Seed, cfg.MachCap, 300))
	})
	t.Run("simtrace", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.MachCap = 32
		cfg.JobCap = 64
		cfg.LSIters = 2
		hashTrajectory(t, cfg, simTrace(t, 11))
	})
}

// TestStateHashRandomEvents drives grids with seeded random events —
// many rejected, which must leave the hash untouched — and checks the
// maintained hash against the from-scratch one after each. Along the
// way it restores a snapshot (the restored grid hashes from scratch)
// and bootstraps a follower daemon through ReplaceGrid, whose digest
// ring must then track the live grid. The seeds are required to cover
// grow, machine failures with restarts, completion of a pending job and
// admission with no alive machine.
func TestStateHashRandomEvents(t *testing.T) {
	var grows, restarts, completePending, admitNoMachine, restores int
	for seed := uint64(1); seed <= 6; seed++ {
		cfg := testConfig()
		cfg.MachCap = 4
		cfg.JobCap = 4
		cfg.Seed = seed
		g, err := NewGrid(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(seed)
		var follower *Daemon
		for i := 0; i < 600; i++ {
			var e eventlog.Event
			switch roll := r.Intn(100); {
			case roll < 35:
				e = eventlog.Event{Type: eventlog.Submit, Job: g.NextJobID(), Base: 1 + float64(r.Intn(8))}
			case roll < 45:
				e = eventlog.Event{Type: eventlog.Join, Mach: g.NextMachID(), Mult: 1 + float64(r.Intn(3))}
			case roll < 55:
				e = eventlog.Event{Type: eventlog.Fail, Mach: 1 + uint64(r.Intn(int(g.NextMachID())))}
			case roll < 62:
				e = eventlog.Event{Type: eventlog.Leave, Mach: 1 + uint64(r.Intn(int(g.NextMachID())))}
			case roll < 85:
				e = eventlog.Event{Type: eventlog.Complete, Job: 1 + uint64(r.Intn(int(g.NextJobID())))}
			default:
				e = eventlog.Event{Type: eventlog.Admit}
			}
			before := g.StateHash()
			wasPending := e.Type == eventlog.Complete && g.Job(e.Job).State == "pending"
			_, _, alive := g.Live()
			c0 := g.Counters()
			e.Seq = g.Applied() + 1
			if err := g.Apply(e); err != nil {
				if got := g.StateHash(); got != before {
					t.Fatalf("seed %d event %d: rejected %s changed the hash", seed, i, e.Type)
				}
				continue
			}
			if got, want := g.StateHash(), scratchStateHash(g); got != want {
				t.Fatalf("seed %d event %d (%+v): maintained %s, from scratch %s", seed, i, e, got, want)
			}
			c1 := g.Counters()
			grows += int(c1.Grows - c0.Grows)
			restarts += int(c1.Restarts - c0.Restarts)
			if wasPending {
				completePending++
			}
			if e.Type == eventlog.Admit && alive == 0 {
				admitNoMachine++
			}
			if follower != nil {
				if err := follower.ApplyReplicated(e); err != nil {
					t.Fatalf("seed %d event %d: follower: %v", seed, i, err)
				}
				if got, ok := follower.DigestAt(e.Seq); !ok || got != g.StateHash() {
					t.Fatalf("seed %d event %d: follower ring %s (%v), live %s", seed, i, got, ok, g.StateHash())
				}
			}
			switch i {
			case 200:
				// Continue on a restored copy: its hash starts from scratch.
				rg, err := Restore(g.Snapshot())
				if err != nil {
					t.Fatal(err)
				}
				if rg.StateHash() != g.StateHash() {
					t.Fatalf("seed %d: restored grid hashes %s, live %s", seed, rg.StateHash(), g.StateHash())
				}
				g = rg
				restores++
			case 300:
				follower = bootstrapFollower(t, g)
			}
		}
		if err := g.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	if grows == 0 || restarts == 0 || completePending == 0 || admitNoMachine == 0 || restores == 0 {
		t.Fatalf("coverage: grows %d, restarts %d, complete-while-pending %d, admit with no machine %d, restores %d",
			grows, restarts, completePending, admitNoMachine, restores)
	}
}

// bootstrapFollower builds a replicating follower daemon and swaps in a
// snapshot-restored copy of g, as the replicator's bootstrap does.
func bootstrapFollower(t *testing.T, g *Grid) *Daemon {
	t.Helper()
	d, err := NewDaemon(ServerConfig{Grid: g.cfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Stop() })
	d.EnableReplication(0)
	if _, err := NewReplicator(d, ReplicatorConfig{
		Dial: func() (transport.Client, error) { return nil, errors.New("unused") },
	}); err != nil {
		t.Fatal(err)
	}
	rg, err := Restore(g.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ReplaceGrid(rg); err != nil {
		t.Fatal(err)
	}
	if got, ok := d.DigestAt(g.Applied()); !ok || got != g.StateHash() {
		t.Fatalf("bootstrap ring %s (%v), live %s", got, ok, g.StateHash())
	}
	return d
}

// TestStateHashDriftReported: CheckInvariants recomputes the hash and
// reports a maintained sum that no longer matches the state.
func TestStateHashDriftReported(t *testing.T) {
	g, err := NewGrid(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatalf("unhashed grid: %v", err)
	}
	g.StateHash()
	d := newDriver(3, testConfig().MachCap)
	for i := 0; i < 60; i++ {
		e := d.next()
		if err := g.Apply(e); err != nil {
			t.Fatal(err)
		}
		if e.Type == eventlog.Admit {
			d.used = len(d.alive)
		}
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// A field write that bypasses the hash hooks.
	g.jobs[0].base += 1
	if err := g.CheckInvariants(); err == nil {
		t.Fatal("drifted state hash not reported")
	}
}

// TestStateHashWireForm round-trips the versioned string.
func TestStateHashWireForm(t *testing.T) {
	h := StateHash{0x0123456789abcdef, 0xfedcba9876543210}
	s := h.String()
	if s != "s1:0123456789abcdeffedcba9876543210" {
		t.Fatalf("wire form %q", s)
	}
	got, err := parseStateHash(s)
	if err != nil || got != h {
		t.Fatalf("parse %q = %v, %v", s, got, err)
	}
	if _, err := parseStateHash("s1:xyz"); err == nil || errors.Is(err, ErrDigestVersion) {
		t.Fatalf("malformed s1 hash: %v", err)
	}
}

// TestReplicationDigestVersionMismatch: a primary shipping a digest of
// another version — the old unprefixed SHA-256 hex, or an unknown
// prefix — stops the follower with a permanent ErrDigestVersion, not
// ErrDiverged, before it applies anything.
func TestReplicationDigestVersionMismatch(t *testing.T) {
	for _, digest := range []string{
		"6533f4cc2827d2549e72e35fd95a6a3dce5445494fd4f483aa3297002752d394",
		"s9:00000000000000000000000000000000",
	} {
		follower, err := NewDaemon(ServerConfig{Grid: DefaultConfig()})
		if err != nil {
			t.Fatal(err)
		}
		defer follower.Stop()
		primary := transport.HandlerFunc(func(ctx context.Context, req *transport.Request) (*transport.Response, error) {
			b, _ := json.Marshal(&ReplBatch{
				Term:      1,
				Applied:   1,
				Events:    []eventlog.Event{{Seq: 1, Type: eventlog.Join, Mach: 1, Mult: 1}},
				Digest:    digest,
				DigestSeq: 1,
			})
			return &transport.Response{ID: req.ID, Repl: b}, nil
		})
		repl, err := NewReplicator(follower, ReplicatorConfig{
			ID:   "old",
			Dial: func() (transport.Client, error) { return transport.NewLocal(primary), nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		defer repl.Stop()
		_, err = repl.Step(context.Background())
		if !errors.Is(err, ErrDigestVersion) || errors.Is(err, ErrDiverged) {
			t.Fatalf("digest %q: step error %v, want ErrDigestVersion", digest, err)
		}
		if !retry.IsPermanent(err) {
			t.Fatalf("digest %q: version mismatch not permanent: %v", digest, err)
		}
		if n := follower.AppliedSeq(); n != 0 {
			t.Fatalf("digest %q: follower applied %d events of an unverifiable batch", digest, n)
		}
	}
}

// Audit digests computed by the code before the StateHash existed; the
// audit format must never change under them.
const (
	// Script(7, 8, 300) on testConfig.
	pinnedScript7Digest = "92df6caac550f0fe63ec626d29040c371a458b7395aa6d4fc7c84f1e2fab7fc6"
	// testdata/snapshot_v1.json: Script(13, 8, ·) on testConfig after
	// 215 events, and the same script after 400.
	fixtureDigest        = "87af7babad2b108c85788eadd9a32d39cb3db87aec88ce7d8f4c8ba6ce2e1095"
	pinnedScript13Digest = "270437ba7f7b0da5e205aeb4b16f9d28439471c446da53296886242a4734b37a"
)

// TestAuditDigestPinned pins one audit Digest for a fixed script.
func TestAuditDigestPinned(t *testing.T) {
	cfg := testConfig()
	g, err := NewGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range Script(7, cfg.MachCap, 300) {
		e.Seq = uint64(i + 1)
		if err := g.Apply(e); err != nil {
			t.Fatal(err)
		}
	}
	if got := g.Digest(); got != pinnedScript7Digest {
		t.Fatalf("audit digest %s, pinned %s", got, pinnedScript7Digest)
	}
}

// TestSnapshotFixtureRestores: a snapshot file written before the
// StateHash existed still restores (its embedded audit digest
// self-verifies), and replaying the rest of its script lands on the
// pinned digest.
func TestSnapshotFixtureRestores(t *testing.T) {
	g, err := LoadSnapshotFile(filepath.Join("testdata", "snapshot_v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Digest(); got != fixtureDigest {
		t.Fatalf("fixture digest %s, want %s", got, fixtureDigest)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	script := Script(13, g.cfg.MachCap, 400)
	for i := int(g.Applied()); i < len(script); i++ {
		e := script[i]
		e.Seq = uint64(i + 1)
		if err := g.Apply(e); err != nil {
			t.Fatal(err)
		}
	}
	if got := g.Digest(); got != pinnedScript13Digest {
		t.Fatalf("digest after the script %s, pinned %s", got, pinnedScript13Digest)
	}
}
