package daemon

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"gridcma/internal/rng"
	"gridcma/internal/transport"
)

// FailoverTestConfig parameterises a failover-torture run.
type FailoverTestConfig struct {
	Grid Config `json:"grid"`
	// Seed drives the event scripts, the chaos schedule and every
	// harness decision; one seed reproduces one run exactly.
	Seed uint64 `json:"seed"`
	// Cases is the number of independent kill-and-promote scenarios
	// (0 = 8). Every third case bootstraps the follower via snapshot
	// (the primary starts from a snapshot-truncated WAL).
	Cases int `json:"cases"`
	// Events is the script length per case (0 = 300).
	Events int `json:"events"`
	// Faults is the chaos fault budget per case (0 = 12).
	Faults int `json:"faults"`
	// Dir is the scratch directory ("" = fresh temp dir, removed on
	// return).
	Dir string `json:"dir,omitempty"`
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any) `json:"-"`
}

// FailoverTestResult summarises a completed run.
type FailoverTestResult struct {
	Cases         int            `json:"cases"`
	Events        int            `json:"events_per_case"`
	Promotions    int            `json:"promotions"`
	SnapshotBoots int            `json:"snapshot_boots"`
	Fenced        int            `json:"fenced_rejections"`
	StaleTerm     int            `json:"stale_term_rejections"`
	StepErrors    int            `json:"step_errors"`
	Faults        map[string]int `json:"faults"`
	FinalDigest   string         `json:"final_digest"`
}

// chaosDialer manufactures fault-injecting clients over the primary's
// replication handler. The fault schedule is a pure function of its rng
// stream and the call sequence, so a seed reproduces the exact
// interleaving of drops, delays, duplicates, partitions and connection
// kills the follower survived (or didn't).
type chaosDialer struct {
	handler transport.Handler
	r       *rng.Source
	budget  int
	faults  map[string]int

	partition int // calls still inside a partition window
}

func (cd *chaosDialer) dial() (transport.Client, error) {
	return &chaosClient{cd: cd, inner: transport.NewLocal(cd.handler)}, nil
}

type chaosClient struct {
	cd    *chaosDialer
	inner transport.Client
}

func (c *chaosClient) Close() error { return c.inner.Close() }

func (c *chaosClient) Call(ctx context.Context, req *transport.Request) (*transport.Response, error) {
	cd := c.cd
	if cd.partition > 0 {
		cd.partition--
		return nil, errors.New("chaos: partitioned")
	}
	if cd.budget > 0 && cd.r.Bool(0.25) {
		cd.budget--
		switch cd.r.Intn(5) {
		case 0: // drop: the request never reaches the primary
			cd.faults["drop"]++
			return nil, errors.New("chaos: request dropped")
		case 1: // dup: the request is delivered twice (a retried frame);
			// the first response is lost, the second served. The primary's
			// cursor must tolerate re-pulling the same position.
			cd.faults["dup"]++
			if _, err := c.inner.Call(ctx, req); err != nil {
				return nil, err
			}
			return c.inner.Call(ctx, req)
		case 2: // delay: delivered late but delivered — in a synchronous
			// harness that is indistinguishable from on-time, so it only
			// counts; reordering effects are covered by dup + drop.
			cd.faults["delay"]++
			return c.inner.Call(ctx, req)
		case 3: // partition: this call and the next few all vanish
			cd.faults["partition"]++
			cd.partition = 2
			return nil, errors.New("chaos: partition opened")
		default: // kill: the connection dies mid-call; the next Step
			// must redial through the retry path.
			cd.faults["kill"]++
			c.inner.Close()
			return nil, errors.New("chaos: connection killed")
		}
	}
	return c.inner.Call(ctx, req)
}

// killableHandler lets the harness simulate the primary's death: once
// killed, every replication call fails at the "network".
type killableHandler struct {
	inner  transport.Handler
	killed atomic.Bool
}

func (k *killableHandler) Handle(ctx context.Context, req *transport.Request) (*transport.Response, error) {
	if k.killed.Load() {
		return nil, errors.New("chaos: primary is dead")
	}
	return k.inner.Handle(ctx, req)
}

// FailoverTest is the replication torture: for each seeded case it
// builds a primary + follower pair connected through a fault-injecting
// transport, drives the primary with a deterministic script while the
// follower pulls through drops, delays, duplicated frames, partitions
// and killed connections, then kills the primary at a seeded point and
// promotes the follower. It asserts, per case:
//
//   - the follower's digest trajectory is bit-identical to the dead
//     primary's acked prefix (via both digest rings against a reference
//     grid replay of the same script);
//   - the follower's WAL is byte-for-byte a prefix of the primary's;
//   - promotion bumps the term, and the term survives on disk;
//   - the stale primary is fenced by the new term: its shipping path
//     rejects, and its own write path refuses (split-brain is dead);
//   - a stale-term pull against the promoted node is rejected;
//   - the promoted node, resuming the script where its replica stopped,
//     lands on exactly the reference digest — failover cost events that
//     were never shipped, never correctness.
//
// Every third case routes the follower through snapshot bootstrap (the
// primary's WAL starts past a snapshot, so log shipping alone cannot
// bring a blank follower up).
func FailoverTest(cfg FailoverTestConfig) (*FailoverTestResult, error) {
	if cfg.Cases <= 0 {
		cfg.Cases = 8
	}
	if cfg.Events <= 0 {
		cfg.Events = 300
	}
	if cfg.Faults <= 0 {
		cfg.Faults = 12
	}
	if cfg.Grid.MachCap == 0 {
		cfg.Grid = DefaultConfig()
		cfg.Grid.Seed = cfg.Seed
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	dir := cfg.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "failovertest-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	res := &FailoverTestResult{
		Cases:  cfg.Cases,
		Events: cfg.Events,
		Faults: make(map[string]int),
	}
	for c := 0; c < cfg.Cases; c++ {
		if err := runFailoverCase(cfg, dir, c, res, logf); err != nil {
			return nil, fmt.Errorf("case %d (seed %d): %w", c, cfg.Seed, err)
		}
	}
	logf("failovertest: %d cases, %d promotions, %d snapshot boots, faults %v",
		res.Cases, res.Promotions, res.SnapshotBoots, res.Faults)
	return res, nil
}

func runFailoverCase(cfg FailoverTestConfig, dir string, c int, res *FailoverTestResult, logf func(string, ...any)) error {
	caseSeed := cfg.Seed + uint64(c)*1_000_003
	script := Script(caseSeed, cfg.Grid.MachCap, cfg.Events)
	caseDir := filepath.Join(dir, fmt.Sprintf("case-%d", c))
	if err := os.MkdirAll(caseDir, 0o755); err != nil {
		return err
	}

	// Reference trajectory: a plain grid replaying the script. Neither
	// the audit digest nor the StateHash covers wall-clock fields, so
	// they are the yardsticks both daemons must match event for event:
	// the digest rings against refHash, the promoted node against
	// refDigest.
	refDigest := make([]string, cfg.Events+1)
	refHash := make([]StateHash, cfg.Events+1)
	ref, err := NewGrid(cfg.Grid)
	if err != nil {
		return err
	}
	for i, e := range script {
		e.Seq = uint64(i + 1)
		if err := ref.Apply(e); err != nil {
			return fmt.Errorf("reference apply %d: %w", i, err)
		}
		refDigest[i+1] = ref.Digest()
		refHash[i+1] = ref.StateHash()
	}

	// Primary. Every third case it is born from a snapshot taken part
	// way into the script, so its WAL cannot serve a blank follower and
	// the bootstrap path must carry it.
	snapCase := c%3 == 2
	bootSeq := 0
	var pg *Grid
	if snapCase {
		bootSeq = cfg.Events / 4
		g, err := NewGrid(cfg.Grid)
		if err != nil {
			return err
		}
		for i := 0; i < bootSeq; i++ {
			e := script[i]
			e.Seq = uint64(i + 1)
			if err := g.Apply(e); err != nil {
				return err
			}
		}
		pg, err = Restore(g.Snapshot())
		if err != nil {
			return err
		}
	} else {
		pg, err = NewGrid(cfg.Grid)
		if err != nil {
			return err
		}
	}
	primary, err := NewDaemonWith(pg, ServerConfig{Grid: cfg.Grid, LogPath: filepath.Join(caseDir, "primary.log")})
	if err != nil {
		return err
	}
	defer primary.Stop()
	replSrv, err := NewReplServer(primary, ReplConfig{Batch: 32, Ring: cfg.Events + 16})
	if err != nil {
		return err
	}
	defer replSrv.Close()
	wire := &killableHandler{inner: replSrv}

	// Follower, pulling through chaos.
	follower, err := NewDaemon(ServerConfig{Grid: cfg.Grid, LogPath: filepath.Join(caseDir, "follower.log")})
	if err != nil {
		return err
	}
	defer follower.Stop()
	follower.EnableReplication(cfg.Events + 16)
	dialer := &chaosDialer{
		handler: wire,
		r:       rng.New(caseSeed ^ 0xc4a05),
		budget:  cfg.Faults,
		faults:  res.Faults,
	}
	repl, err := NewReplicator(follower, ReplicatorConfig{
		ID:    fmt.Sprintf("case-%d", c),
		Dial:  dialer.dial,
		Batch: 24,
	})
	if err != nil {
		return err
	}
	defer repl.Stop()

	// Drive: apply the script to the primary, interleaving 0–2 follower
	// pull rounds after each event, all sequenced by the harness rng —
	// no goroutines, no timers, one deterministic interleaving per seed.
	hr := rng.New(caseSeed ^ 0xfa110)
	kill := bootSeq + (cfg.Events-bootSeq)/2 + hr.Intn((cfg.Events-bootSeq)/4+1)
	ctx := context.Background()
	for i := bootSeq; i < kill; i++ {
		if _, err := primary.ApplyEvent(script[i]); err != nil {
			return fmt.Errorf("primary apply %d: %w", i, err)
		}
		for s := hr.Intn(3); s > 0; s-- {
			if _, err := repl.Step(ctx); err != nil {
				if errors.Is(err, ErrDiverged) {
					return err
				}
				res.StepErrors++ // chaos casualties are expected; divergence is not
			}
		}
	}

	// The primary dies mid-stream.
	wire.killed.Store(true)
	if _, err := repl.Step(ctx); err == nil {
		return errors.New("pull from a dead primary succeeded")
	} else {
		res.StepErrors++
	}

	// Promote whatever the follower managed to replicate. F is the acked
	// prefix the new primary owns; events F..kill died with the old one —
	// async replication loses tail, never integrity.
	f := follower.AppliedSeq()
	newTerm, err := repl.Promote()
	if err != nil {
		return fmt.Errorf("promote: %w", err)
	}
	if newTerm != 2 {
		return fmt.Errorf("promoted to term %d, want 2", newTerm)
	}
	if follower.Role() != "primary" {
		return fmt.Errorf("promoted node reports role %q", follower.Role())
	}
	res.Promotions++
	if snapCase {
		if repl.Stats().Snapshots == 0 {
			return errors.New("snapshot case never bootstrapped via snapshot")
		}
		res.SnapshotBoots++
	}
	if uint64(bootSeq) > f {
		return fmt.Errorf("follower applied %d, below its own bootstrap point %d", f, bootSeq)
	}
	// The follower's trajectory starts at its own bootstrap point, which
	// can sit past the primary's (the bootstrap snapshot is whatever the
	// primary had applied when the gap was detected).
	fFrom := uint64(bootSeq) + 1
	if b := repl.BootstrapSeq(); b > 0 {
		fFrom = b + 1
	}

	// Digest trajectories: both rings must match the reference bit for
	// bit over every sequence they claim.
	checkRing := func(who string, d *Daemon, from, to uint64) error {
		for seq := from; seq <= to; seq++ {
			dig, ok := d.DigestAt(seq)
			if !ok {
				return fmt.Errorf("%s digest ring lost seq %d", who, seq)
			}
			if dig != refHash[seq] {
				return fmt.Errorf("%s diverged at seq %d: %s != reference %s", who, seq, dig, refHash[seq])
			}
		}
		return nil
	}
	if err := checkRing("primary", primary, uint64(bootSeq)+1, uint64(kill)); err != nil {
		return err
	}
	if err := checkRing("follower", follower, fFrom, f); err != nil {
		return err
	}

	// WAL bytes: the replica's log must be a byte-for-byte prefix of the
	// dead primary's — same events, same timestamps, same checksums.
	if err := primary.FlushWAL(); err != nil {
		return err
	}
	if err := follower.FlushWAL(); err != nil {
		return err
	}
	pWAL, err := os.ReadFile(filepath.Join(caseDir, "primary.log"))
	if err != nil {
		return err
	}
	fWAL, err := os.ReadFile(filepath.Join(caseDir, "follower.log"))
	if err != nil {
		return err
	}
	if snapCase {
		// A bootstrapped follower's log starts mid-stream: its bytes must
		// appear contiguously inside the primary's log.
		if len(fWAL) > 0 && !bytes.Contains(pWAL, fWAL) {
			return fmt.Errorf("bootstrapped follower WAL (%d bytes) not a contiguous run of the primary's (%d bytes)",
				len(fWAL), len(pWAL))
		}
	} else if !bytes.HasPrefix(pWAL, fWAL) {
		return fmt.Errorf("follower WAL (%d bytes) is not a prefix of the primary's (%d bytes)", len(fWAL), len(pWAL))
	}

	// Split-brain fencing, both directions. The old primary wakes up:
	// the first replication request carrying the new term fences it, and
	// its own write path goes read-only.
	wire.killed.Store(false)
	stale, err := NewDaemon(ServerConfig{Grid: cfg.Grid, LogPath: filepath.Join(caseDir, "stale-probe.log")})
	if err != nil {
		return err
	}
	defer stale.Stop()
	staleRepl, err := NewReplicator(stale, ReplicatorConfig{
		ID:   fmt.Sprintf("case-%d-probe", c),
		Dial: func() (transport.Client, error) { return transport.NewLocal(replSrv), nil },
	})
	if err != nil {
		return err
	}
	defer staleRepl.Stop()
	if err := stale.adoptTerm(newTerm); err != nil {
		return err
	}
	if _, err := staleRepl.Step(ctx); err == nil {
		return errors.New("old primary shipped events to a newer-term follower")
	}
	if !primary.Fenced() {
		return errors.New("old primary not fenced after seeing the new term")
	}
	res.Fenced++
	if _, err := primary.ApplyEvent(script[kill]); err == nil {
		return errors.New("fenced primary accepted a write (split brain)")
	}

	// And the promoted node refuses a stale-term pull.
	promotedSrv, err := NewReplServer(follower, ReplConfig{})
	if err != nil {
		return err
	}
	defer promotedSrv.Close()
	staleBatch, err := promotedSrv.pull(&ReplPull{ID: "stale", Term: 1, After: 0})
	if err != nil {
		return err
	}
	if staleBatch.Reject != RejectStaleTerm {
		return fmt.Errorf("stale-term pull got reject %q, want %q", staleBatch.Reject, RejectStaleTerm)
	}
	res.StaleTerm++

	// The promoted primary resumes the script from its replicated
	// position and must land on the reference trajectory exactly.
	for i := int(f); i < cfg.Events; i++ {
		if _, err := follower.ApplyEvent(script[i]); err != nil {
			return fmt.Errorf("promoted apply %d: %w", i, err)
		}
		if dig := follower.GridDigest(); dig != refDigest[i+1] {
			return fmt.Errorf("promoted node diverged at seq %d after failover", i+1)
		}
	}
	res.FinalDigest = follower.GridDigest()
	if res.FinalDigest != refDigest[cfg.Events] {
		return errors.New("final digest differs from reference")
	}

	// The bumped term survives on disk: a restarted promoted node must
	// not fall back to a fenced term.
	t, err := loadTerm(filepath.Join(caseDir, "follower.log.term"))
	if err != nil {
		return err
	}
	if t != newTerm {
		return fmt.Errorf("persisted term %d, want %d", t, newTerm)
	}
	logf("failovertest: case %d ok: killed at %d, promoted at %d (term %d)", c, kill, f, newTerm)
	return nil
}
