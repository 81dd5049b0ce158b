package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gridcma/internal/eventlog"
	"gridcma/internal/retry"
	"gridcma/internal/transport"
)

// ErrDiverged is the replication tripwire: the follower applied the
// same event prefix as the primary and computed a different StateHash.
// That is not lag — it is a broken determinism contract (or a
// corrupted ship), and the only safe move is to stop replicating and
// flag the node degraded rather than let two "replicas" drift apart.
var ErrDiverged = errors.New("daemon: replica diverged from primary (digest mismatch at identical applied prefix)")

// ReplicatorConfig parameterises a follower's pull loop.
type ReplicatorConfig struct {
	// Primary is the primary's replication listener address (dialed with
	// internal/transport) — ignored when Dial is set.
	Primary string
	// ID names this follower to the primary (cursor key). Defaults to
	// "follower"; give each follower of one primary a distinct ID.
	ID string
	// Dial overrides how the primary is reached; tests and the failover
	// torture inject in-process (and chaos-wrapped) clients here.
	Dial func() (transport.Client, error)
	// Batch caps events requested per pull (0 = 512).
	Batch int
	// Poll is the idle wait between pulls once caught up (0 = 50ms).
	Poll time.Duration
	// MaxLag is the /readyz "replica-lag" threshold in events
	// (0 = 4096).
	MaxLag uint64
	// SnapPath persists a bootstrap snapshot next to the follower's WAL
	// so a restart can recover locally (empty = LogPath+".snap" when the
	// follower has a WAL, else no persistence).
	SnapPath string
	// CallTimeout bounds each pull RPC (0 = 10s).
	CallTimeout time.Duration
	// Retry governs reconnection to a dead primary.
	Retry retry.Policy
	// OnApply, when set, observes every replicated event after it is
	// applied (outside the daemon lock); the bench uses it to timestamp
	// arrivals for lag percentiles.
	OnApply func(e eventlog.Event)
}

// Replicator drives a follower daemon: it pulls WAL batches from the
// primary, applies them verbatim, checks the primary's digest against
// its own after every batch, and can Promote the follower to primary
// with a bumped fencing term. Pull-based: the follower owns its
// position, so a restart resumes from its applied sequence number with
// no primary-side bookkeeping to recover.
type Replicator struct {
	d   *Daemon
	cfg ReplicatorConfig

	mu     sync.Mutex // guards client + Step; Run/Step/Promote serialise here
	client transport.Client
	nextID uint64

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
	running  atomic.Bool

	// Counters (observability).
	pulls      atomic.Uint64
	events     atomic.Uint64
	snapshots  atomic.Uint64
	reconnects atomic.Uint64
	rejects    atomic.Uint64
	bootSeq    atomic.Uint64 // applied seq of the last snapshot bootstrap
}

// NewReplicator demotes d to follower and returns its pull loop
// (not yet running: call Run, or Step for deterministic tests).
func NewReplicator(d *Daemon, cfg ReplicatorConfig) (*Replicator, error) {
	if cfg.Primary == "" && cfg.Dial == nil {
		return nil, errors.New("daemon: replicator needs a primary address or a Dial hook")
	}
	if cfg.ID == "" {
		cfg.ID = "follower"
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 512
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 50 * time.Millisecond
	}
	if cfg.MaxLag == 0 {
		cfg.MaxLag = 4096
	}
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = 10 * time.Second
	}
	if cfg.SnapPath == "" && d.cfg.LogPath != "" {
		cfg.SnapPath = d.cfg.LogPath + ".snap"
	}
	r := &Replicator{
		d:    d,
		cfg:  cfg,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	d.setFollower(r.Promote, cfg.MaxLag)
	return r, nil
}

func (r *Replicator) dial() (transport.Client, error) {
	if r.cfg.Dial != nil {
		return r.cfg.Dial()
	}
	return transport.Dial(r.cfg.Primary, r.cfg.CallTimeout)
}

// connectLocked ensures a live client, reconnecting through the retry
// policy's backoff schedule; r.mu held.
func (r *Replicator) connectLocked(ctx context.Context) error {
	if r.client != nil {
		return nil
	}
	return r.cfg.Retry.Do(ctx, func(int) error {
		c, err := r.dial()
		if err != nil {
			r.reconnects.Add(1)
			return err
		}
		r.client = c
		return nil
	})
}

func (r *Replicator) dropClientLocked() {
	if r.client != nil {
		r.client.Close()
		r.client = nil
	}
}

// call performs one replication RPC and decodes its payload into out.
func (r *Replicator) call(ctx context.Context, kind string, pull *ReplPull, out any) error {
	payload, err := json.Marshal(pull)
	if err != nil {
		return retry.Permanent(err)
	}
	r.nextID++
	resp, err := r.client.Call(ctx, &transport.Request{ID: r.nextID, Kind: kind, Repl: payload})
	if err != nil {
		return err
	}
	if resp.Err != "" {
		return errors.New(resp.Err)
	}
	if err := json.Unmarshal(resp.Repl, out); err != nil {
		return fmt.Errorf("daemon: replication response payload: %v", err)
	}
	return nil
}

// Step performs exactly one pull round: connect if needed, pull one
// batch, apply it, commit, and verify the shipped digest. It returns
// the number of events applied; 0 with a nil error means caught up.
// Step is the determinism lever for the failover torture — no timers,
// no goroutines, every side effect sequenced by the caller.
func (r *Replicator) Step(ctx context.Context) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.connectLocked(ctx); err != nil {
		return 0, err
	}
	pull := &ReplPull{
		ID:    r.cfg.ID,
		Term:  r.d.Term(),
		After: r.d.AppliedSeq(),
		Max:   r.cfg.Batch,
	}
	var batch ReplBatch
	r.pulls.Add(1)
	if err := r.call(ctx, transport.KindReplPull, pull, &batch); err != nil {
		// Transport failure: the connection is suspect, drop it so the
		// next Step redials (with backoff) rather than reusing a socket
		// in an unknown framing state.
		r.dropClientLocked()
		return 0, err
	}
	if batch.Term > r.d.Term() {
		if err := r.d.adoptTerm(batch.Term); err != nil {
			return 0, retry.Permanent(err)
		}
	}
	if batch.Reject != "" {
		r.rejects.Add(1)
		switch batch.Reject {
		case RejectStaleTerm:
			// Term adopted above; the next pull carries it.
			return 0, fmt.Errorf("daemon: pull rejected: %s (term now %d)", batch.Reject, r.d.Term())
		case RejectAhead:
			// We hold events the primary never acked: irreconcilable
			// without operator intervention.
			r.d.degraded.Store(true)
			return 0, retry.Permanent(fmt.Errorf("daemon: pull rejected: %s (local %d > primary %d)",
				batch.Reject, pull.After, batch.Applied))
		default:
			return 0, fmt.Errorf("daemon: pull rejected: %s", batch.Reject)
		}
	}
	if batch.NeedSnapshot {
		if err := r.bootstrapLocked(ctx); err != nil {
			return 0, err
		}
		return 0, nil
	}
	// A digest this node cannot compute makes every later check
	// meaningless: stop before applying anything.
	var want StateHash
	if batch.Digest != "" {
		var err error
		if want, err = parseStateHash(batch.Digest); err != nil {
			return 0, retry.Permanent(err)
		}
	}
	for _, e := range batch.Events {
		if err := r.d.ApplyReplicated(e); err != nil {
			r.d.degraded.Store(true)
			return 0, retry.Permanent(err)
		}
	}
	if len(batch.Events) > 0 {
		if err := r.d.CommitReplicated(); err != nil {
			return 0, retry.Permanent(err)
		}
		r.events.Add(uint64(len(batch.Events)))
		if r.cfg.OnApply != nil {
			for _, e := range batch.Events {
				r.cfg.OnApply(e)
			}
		}
	}
	applied := r.d.AppliedSeq()
	lag := uint64(0)
	if batch.Applied > applied {
		lag = batch.Applied - applied
	}
	r.d.replLag.Store(lag)
	if lag == 0 {
		r.d.replCaught.Store(true)
	}
	// Continuous divergence detection: whenever the primary stamped the
	// batch end with its StateHash and we sit exactly there, the hashes
	// must agree bit for bit.
	if batch.Digest != "" && batch.DigestSeq == applied {
		if local := r.d.GridStateHash(); local != want {
			r.d.degraded.Store(true)
			return len(batch.Events), retry.Permanent(fmt.Errorf(
				"%w: seq %d primary %s local %s", ErrDiverged, applied, batch.Digest, local))
		}
	}
	return len(batch.Events), nil
}

// bootstrapLocked fetches the primary's snapshot, restores a grid from
// it (the restore self-verifies against the embedded digest), swaps it
// into the daemon and persists the snapshot file when configured.
func (r *Replicator) bootstrapLocked(ctx context.Context) error {
	pull := &ReplPull{ID: r.cfg.ID, Term: r.d.Term()}
	var snap ReplSnap
	if err := r.call(ctx, transport.KindReplSnapshot, pull, &snap); err != nil {
		r.dropClientLocked()
		return err
	}
	if snap.Term > r.d.Term() {
		if err := r.d.adoptTerm(snap.Term); err != nil {
			return retry.Permanent(err)
		}
	}
	if snap.Reject != "" {
		r.rejects.Add(1)
		return fmt.Errorf("daemon: snapshot rejected: %s", snap.Reject)
	}
	if snap.Snapshot == nil {
		return errors.New("daemon: snapshot response carried no snapshot")
	}
	g, err := Restore(snap.Snapshot)
	if err != nil {
		return retry.Permanent(fmt.Errorf("daemon: restoring bootstrap snapshot: %w", err))
	}
	if err := r.d.ReplaceGrid(g); err != nil {
		return retry.Permanent(err)
	}
	if r.cfg.SnapPath != "" {
		if err := SaveSnapshot(snap.Snapshot, r.cfg.SnapPath); err != nil {
			return fmt.Errorf("daemon: persisting bootstrap snapshot: %w", err)
		}
	}
	r.snapshots.Add(1)
	r.bootSeq.Store(r.d.AppliedSeq())
	return nil
}

// BootstrapSeq returns the applied sequence number of the last snapshot
// bootstrap (0 = never bootstrapped; the follower's log starts at 1).
func (r *Replicator) BootstrapSeq() uint64 { return r.bootSeq.Load() }

// Run starts the pull loop: Step until stopped, sleeping Poll between
// caught-up rounds and backing off (via the retry policy's schedule)
// after errors. Divergence and other permanent errors latch the daemon
// degraded and end the loop — a replica that cannot trust its state
// must stop, not retry.
func (r *Replicator) Run() {
	if !r.running.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer close(r.done)
		var wait, backoff time.Duration
		for {
			if wait > 0 {
				select {
				case <-r.stop:
					return
				case <-time.After(wait):
				}
			} else {
				select {
				case <-r.stop:
					return
				default:
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), r.cfg.CallTimeout)
			n, err := r.Step(ctx)
			cancel()
			switch {
			case err != nil:
				if retry.IsPermanent(err) {
					// Divergence, degraded apply, irreconcilable positions:
					// retrying cannot make this replica trustworthy again.
					return
				}
				backoff = r.nextBackoff(backoff)
				wait = backoff
			case n == 0:
				backoff, wait = 0, r.cfg.Poll
			default:
				backoff, wait = 0, 0
			}
		}
	}()
}

// nextBackoff advances the loop's error backoff along the retry
// policy's schedule (initial, doubling, capped at max).
func (r *Replicator) nextBackoff(cur time.Duration) time.Duration {
	initial := r.cfg.Retry.Initial
	if initial <= 0 {
		initial = 50 * time.Millisecond
	}
	max := r.cfg.Retry.Max
	if max <= 0 {
		max = 2 * time.Second
	}
	if cur < initial {
		return initial
	}
	cur *= 2
	if cur > max {
		cur = max
	}
	return cur
}

// Stop ends the pull loop and waits for it; safe to call repeatedly
// and without a prior Run.
func (r *Replicator) Stop() {
	r.stopOnce.Do(func() { close(r.stop) })
	if r.running.Load() {
		<-r.done
	}
	r.mu.Lock()
	r.dropClientLocked()
	r.mu.Unlock()
}

// Promote fails the follower over to primary: the pull loop stops, the
// term bumps past everything this node has seen (persisting before the
// role flips), and the daemon starts accepting writes. The returned
// term is the fence that locks the old primary out.
func (r *Replicator) Promote() (uint64, error) {
	r.Stop()
	r.mu.Lock()
	defer r.mu.Unlock()
	newTerm := r.d.Term() + 1
	if err := r.d.promoteToPrimary(newTerm); err != nil {
		return 0, err
	}
	return newTerm, nil
}

// ReplStats snapshots the replicator's counters.
type ReplStats struct {
	Pulls      uint64 `json:"pulls"`
	Events     uint64 `json:"events"`
	Snapshots  uint64 `json:"snapshots"`
	Reconnects uint64 `json:"reconnects"`
	Rejects    uint64 `json:"rejects"`
}

// Stats returns the replicator's counters.
func (r *Replicator) Stats() ReplStats {
	return ReplStats{
		Pulls:      r.pulls.Load(),
		Events:     r.events.Load(),
		Snapshots:  r.snapshots.Load(),
		Reconnects: r.reconnects.Load(),
		Rejects:    r.rejects.Load(),
	}
}
