package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync"

	"gridcma/internal/eventlog"
	"gridcma/internal/transport"
)

// Daemon roles. A daemon is born a primary; NewReplicator demotes it to
// follower, and Promote flips it back with a bumped term.
const (
	rolePrimary int32 = iota
	roleFollower
)

// Replication batch rejection reasons (ReplBatch.Reject / ReplSnap.Reject).
const (
	// RejectStaleTerm: the request carried a term below the responder's —
	// the caller is behind and must adopt the responder's term first.
	RejectStaleTerm = "stale-term"
	// RejectFenced: the responder has seen a higher term than its own and
	// refuses to ship — it is a deposed primary in read-only mode.
	RejectFenced = "fenced"
	// RejectNotPrimary: the responder is a follower; only primaries ship.
	RejectNotPrimary = "not-primary"
	// RejectAhead: the puller claims more applied events than the
	// responder has — the two logs have diverged past what term fencing
	// caught, and shipping anything would make it worse.
	RejectAhead = "follower-ahead"
)

// ReplPull is the payload of a transport.KindReplPull request: ship the
// WAL events after sequence number After.
type ReplPull struct {
	// ID identifies the follower; the primary keys its WAL cursor on it
	// so a steady follower is served by streaming, not re-scanning.
	ID string `json:"id"`
	// Term is the follower's fencing term. A term above the primary's
	// fences the primary (it has been superseded); below it, the pull is
	// rejected until the follower adopts the newer term.
	Term  uint64 `json:"term"`
	After uint64 `json:"after"`
	Max   int    `json:"max,omitempty"`
}

// ReplBatch answers a pull.
type ReplBatch struct {
	Term   uint64 `json:"term"`
	Reject string `json:"reject,omitempty"`
	// NeedSnapshot: the primary's WAL cannot serve After+1 (the follower
	// is behind a snapshot-truncated log); bootstrap via KindReplSnapshot.
	NeedSnapshot bool             `json:"need_snapshot,omitempty"`
	Events       []eventlog.Event `json:"events,omitempty"`
	// Applied is the primary's applied sequence number at ship time —
	// the follower's lag is Applied minus its own.
	Applied uint64 `json:"applied"`
	// Digest is the primary's StateHash after applying DigestSeq, in
	// its versioned wire form ("s1:…"), carried on every batch for
	// continuous divergence detection: a follower whose hash differs
	// after the same prefix must stop rather than drift, and one that
	// does not compute the shipped version stops with ErrDigestVersion.
	Digest    string `json:"digest,omitempty"`
	DigestSeq uint64 `json:"digest_seq,omitempty"`
}

// ReplSnap answers a transport.KindReplSnapshot bootstrap request.
type ReplSnap struct {
	Term     uint64    `json:"term"`
	Reject   string    `json:"reject,omitempty"`
	Snapshot *Snapshot `json:"snapshot,omitempty"`
}

// loadTerm reads a persisted fencing term; a missing file is term 0.
func loadTerm(path string) (uint64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, nil
		}
		return 0, err
	}
	t, err := strconv.ParseUint(string(bytesTrimSpace(b)), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("daemon: term file %s: %v", path, err)
	}
	return t, nil
}

func bytesTrimSpace(b []byte) []byte {
	for len(b) > 0 && (b[len(b)-1] == '\n' || b[len(b)-1] == '\r' || b[len(b)-1] == ' ') {
		b = b[:len(b)-1]
	}
	return b
}

// saveTerm persists a fencing term atomically (temp + rename): a crash
// mid-write must never roll a term back, or a deposed primary could be
// reborn believing it still leads.
func saveTerm(path string, term uint64) error {
	dir, tmp := splitTmp(path)
	f, err := os.CreateTemp(dir, tmp)
	if err != nil {
		return err
	}
	name := f.Name()
	_, werr := fmt.Fprintf(f, "%d\n", term)
	if serr := f.Sync(); werr == nil {
		werr = serr
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(name)
		return werr
	}
	return os.Rename(name, path)
}

func splitTmp(path string) (dir, pattern string) {
	i := len(path) - 1
	for i >= 0 && path[i] != '/' {
		i--
	}
	if i < 0 {
		return ".", ".term-*.tmp"
	}
	return path[:i], ".term-*.tmp"
}

// digestRing remembers the StateHash after each of the last N applied
// events, so pull responses can stamp any recent batch end with the
// hash the follower must reproduce. Bounded: a follower lagging further
// than the ring simply gets batches without digests until it catches
// back into the window (correctness never depends on the digest — it is
// the tripwire, not the ledger). Values are fixed-size, so recording
// one allocates nothing.
type digestRing struct {
	seqs []uint64
	vals []StateHash
}

func newDigestRing(n int) *digestRing {
	if n < 1024 {
		n = 1024
	}
	return &digestRing{seqs: make([]uint64, n), vals: make([]StateHash, n)}
}

func (r *digestRing) put(seq uint64, dig StateHash) {
	i := seq % uint64(len(r.seqs))
	r.seqs[i], r.vals[i] = seq, dig
}

func (r *digestRing) get(seq uint64) (StateHash, bool) {
	if seq == 0 {
		return StateHash{}, false
	}
	i := seq % uint64(len(r.seqs))
	if r.seqs[i] != seq {
		return StateHash{}, false
	}
	return r.vals[i], true
}

// --- Daemon replication surface ---------------------------------------

// EnableReplication arms the daemon for serving followers: every
// applied event records the grid's StateHash in a bounded ring.
// ringSize bounds the digest window (0 = 8192). Idempotent.
//
// Events are not flushed to the WAL one by one: the shipping path
// (ReplServer.pull) flushes under the lock before it reads, FsyncAlways
// flushes at every acknowledgement, and admissions flush, so a pull
// always sees every event applied before it.
func (d *Daemon) EnableReplication(ringSize int) {
	if ringSize <= 0 {
		ringSize = 8192
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.digests != nil {
		return
	}
	d.digests = newDigestRing(ringSize)
	if seq := d.g.Applied(); seq > 0 {
		d.digests.put(seq, d.g.StateHash())
	}
}

// recordDigestLocked stamps the digest ring with the StateHash after a
// successful apply; d.mu held, no-op until EnableReplication.
func (d *Daemon) recordDigestLocked() {
	if d.digests != nil {
		d.digests.put(d.g.Applied(), d.g.StateHash())
	}
}

// DigestAt returns the recorded StateHash after event seq, if it is
// still inside the replication digest window.
func (d *Daemon) DigestAt(seq uint64) (StateHash, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.digests == nil {
		return StateHash{}, false
	}
	return d.digests.get(seq)
}

// Term returns the daemon's fencing term.
func (d *Daemon) Term() uint64 { return d.term.Load() }

// Fenced reports whether this node observed a higher term than its own
// and demoted itself to read-only.
func (d *Daemon) Fenced() bool { return d.fenced.Load() }

// Role returns "primary" or "follower".
func (d *Daemon) Role() string {
	if d.role.Load() == roleFollower {
		return "follower"
	}
	return "primary"
}

// ReplicaLag returns the follower's last observed event lag behind its
// primary (0 on a primary).
func (d *Daemon) ReplicaLag() uint64 { return d.replLag.Load() }

// fenceBy latches the read-only demotion after observing term t above
// our own. The node does NOT adopt t — the term belongs to the new
// primary; claiming it would recreate the split brain fencing exists to
// prevent.
func (d *Daemon) fenceBy(t uint64) {
	for {
		cur := d.fencedBy.Load()
		if cur >= t {
			break
		}
		if d.fencedBy.CompareAndSwap(cur, t) {
			break
		}
	}
	d.fenced.Store(true)
}

// adoptTerm raises the daemon's term to t (persisting it) if higher.
// Followers adopt their primary's term so a later promotion bumps past
// it.
func (d *Daemon) adoptTerm(t uint64) error {
	for {
		cur := d.term.Load()
		if t <= cur {
			return nil
		}
		if d.term.CompareAndSwap(cur, t) {
			break
		}
	}
	if d.termPath != "" {
		return saveTerm(d.termPath, t)
	}
	return nil
}

// AppliedSeq returns the grid's applied sequence number under the lock.
func (d *Daemon) AppliedSeq() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.g.Applied()
}

// GridDigest returns the grid's audit digest (SHA-256) under the lock.
func (d *Daemon) GridDigest() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.g.Digest()
}

// GridStateHash returns the grid's replication StateHash under the
// lock.
func (d *Daemon) GridStateHash() StateHash {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.g.StateHash()
}

// SnapshotNow flushes the WAL and externalises the grid.
func (d *Daemon) SnapshotNow() (*Snapshot, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.flushLocked(false); err != nil {
		return nil, err
	}
	return d.g.Snapshot(), nil
}

// ApplyEvent applies one event through the daemon's full write path
// (WAL, digest ring, group commit) and returns the stamped event. It is
// the programmatic twin of POST /event, used by the failover torture
// and the replication bench to drive a primary without HTTP.
func (d *Daemon) ApplyEvent(e eventlog.Event) (eventlog.Event, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	stamped, err := d.applyLocked(e)
	if err != nil {
		return stamped, err
	}
	if err := d.commitLocked(); err != nil {
		d.walErrors.Add(1)
		return stamped, err
	}
	return stamped, nil
}

// ApplyReplicated applies an event shipped from the primary verbatim:
// sequence, timestamp and checksum are preserved, so the follower's WAL
// is byte-identical to the primary's prefix and "promote then replay"
// is indistinguishable from "the primary never died". Only followers
// accept replicated writes.
func (d *Daemon) ApplyReplicated(e eventlog.Event) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errors.New("daemon: stopped")
	}
	if d.role.Load() != roleFollower {
		return errors.New("daemon: not a follower: replicated writes refused")
	}
	if err := d.g.Apply(e); err != nil {
		return err
	}
	if d.wal != nil {
		stamped, err := d.wal.Append(e)
		if err != nil {
			d.walErrors.Add(1)
			return fmt.Errorf("daemon: replicated event %d applied but not persisted: %w", e.Seq, err)
		}
		// The writer re-stamps and re-checksums; any disagreement with
		// what the primary shipped means the bytes would diverge.
		if stamped.Seq != e.Seq || (e.Crc != 0 && stamped.Crc != e.Crc) {
			return fmt.Errorf("daemon: replicated event %d re-encoded as seq %d crc %#x (shipped crc %#x): WAL divergence",
				e.Seq, stamped.Seq, stamped.Crc, e.Crc)
		}
	}
	d.recordDigestLocked()
	return nil
}

// CommitReplicated is the follower's batch commit barrier: flush, plus
// fsync under FsyncAlways — the same durability the primary gave the
// batch when it first acknowledged it.
func (d *Daemon) CommitReplicated() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.wal == nil || d.closed {
		return nil
	}
	if err := d.wal.Flush(); err != nil {
		return err
	}
	if d.cfg.Fsync == FsyncAlways {
		return d.walFile.Sync()
	}
	return nil
}

// FlushWAL makes every applied event visible to WAL readers.
func (d *Daemon) FlushWAL() error {
	_, err := d.flushApplied()
	return err
}

// flushApplied flushes the WAL and returns the applied sequence number
// it covers, in one lock hold: events are not flushed one by one, so an
// applied position read after releasing the lock could lie past the
// log's visible end.
func (d *Daemon) flushApplied() (uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.wal == nil || d.closed {
		return d.g.Applied(), nil
	}
	return d.g.Applied(), d.wal.Flush()
}

// ReplaceGrid swaps in a bootstrap-restored grid and restarts the WAL
// from its applied sequence number: the events below the snapshot are
// gone from this node's log (they live in the snapshot file the caller
// persists alongside), exactly like a primary that snapshotted and
// rotated. Follower-only.
func (d *Daemon) ReplaceGrid(g *Grid) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errors.New("daemon: stopped")
	}
	if d.role.Load() != roleFollower {
		return errors.New("daemon: not a follower: grid replacement refused")
	}
	if d.wal != nil {
		if err := d.wal.Flush(); err != nil {
			return err
		}
		if err := d.walFile.Truncate(0); err != nil {
			return fmt.Errorf("daemon: truncating WAL for bootstrap: %w", err)
		}
		d.wal = eventlog.NewWriterAt(d.walFile, g.Applied())
	}
	d.g = g
	if d.digests != nil {
		d.digests = newDigestRing(len(d.digests.seqs))
		if seq := g.Applied(); seq > 0 {
			d.digests.put(seq, g.StateHash())
		}
	}
	return nil
}

// setFollower demotes the daemon to follower and registers the
// replicator's promote hook; called by NewReplicator.
func (d *Daemon) setFollower(promote func() (uint64, error), maxLag uint64) {
	d.promoteMu.Lock()
	d.promoteFn = promote
	d.promoteMu.Unlock()
	d.replMaxLag.Store(maxLag)
	d.replCaught.Store(false)
	d.role.Store(roleFollower)
}

// promoteToPrimary is the role flip at failover: claim newTerm
// (persisted before the role changes hands — a promotion that cannot
// record its term must not serve), then start taking writes.
func (d *Daemon) promoteToPrimary(newTerm uint64) error {
	for {
		cur := d.term.Load()
		if newTerm <= cur {
			return fmt.Errorf("daemon: promotion term %d not above current %d", newTerm, cur)
		}
		if d.term.CompareAndSwap(cur, newTerm) {
			break
		}
	}
	if d.termPath != "" {
		if err := saveTerm(d.termPath, newTerm); err != nil {
			return fmt.Errorf("daemon: persisting promotion term: %w", err)
		}
	}
	d.replLag.Store(0)
	d.replCaught.Store(true)
	d.role.Store(rolePrimary)
	return nil
}

// Promote asks the follower's replicator to take over as primary,
// returning the new term. On a node that was never a follower it
// reports an error.
func (d *Daemon) Promote() (uint64, error) {
	d.promoteMu.Lock()
	fn := d.promoteFn
	d.promoteMu.Unlock()
	if fn == nil {
		return 0, errors.New("daemon: not a follower (no replicator attached)")
	}
	return fn()
}

func (d *Daemon) handlePromote(w http.ResponseWriter, r *http.Request) {
	term, err := d.Promote()
	if err != nil {
		httpError(w, http.StatusConflict, "promote: %v", err)
		return
	}
	writeJSON(w, map[string]any{
		"role":    d.Role(),
		"term":    term,
		"applied": d.AppliedSeq(),
	})
}

// --- ReplServer: the primary's shipping side ---------------------------

// ReplConfig parameterises a ReplServer.
type ReplConfig struct {
	// Batch caps events per pull response (0 = 512).
	Batch int
	// Ring sizes the digest window (0 = 8192); it should comfortably
	// exceed Batch so every batch end can carry a digest.
	Ring int
}

// ReplServer serves the primary's side of WAL-shipping replication as a
// transport.Handler: followers pull batches of WAL events (resumable by
// sequence number, streamed via a cached eventlog.Follower per
// follower), bootstrap from a snapshot when the log cannot serve their
// position, and get the primary's digest with every batch. Term
// checking happens on every request — a pull carrying a higher term
// fences this node on the spot.
type ReplServer struct {
	d       *Daemon
	walPath string
	batch   int

	mu      sync.Mutex
	cursors map[string]*replCursor
}

type replCursor struct {
	fl   *eventlog.Follower
	next uint64 // sequence number the cursor will read next
}

// NewReplServer arms d for replication and returns the shipping
// handler. The daemon must have a WAL (replication ships the log).
func NewReplServer(d *Daemon, cfg ReplConfig) (*ReplServer, error) {
	if d.cfg.LogPath == "" {
		return nil, errors.New("daemon: replication requires a WAL (ServerConfig.LogPath)")
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 512
	}
	d.EnableReplication(cfg.Ring)
	return &ReplServer{
		d:       d,
		walPath: d.cfg.LogPath,
		batch:   cfg.Batch,
		cursors: make(map[string]*replCursor),
	}, nil
}

// Handle implements transport.Handler.
func (s *ReplServer) Handle(ctx context.Context, req *transport.Request) (*transport.Response, error) {
	switch req.Kind {
	case transport.KindPing:
		return &transport.Response{ID: req.ID}, nil
	case transport.KindReplPull:
		var pull ReplPull
		if err := json.Unmarshal(req.Repl, &pull); err != nil {
			return nil, fmt.Errorf("daemon: repl-pull payload: %v", err)
		}
		batch, err := s.pull(&pull)
		if err != nil {
			return nil, err
		}
		return marshalRepl(req.ID, batch)
	case transport.KindReplSnapshot:
		var pull ReplPull
		if err := json.Unmarshal(req.Repl, &pull); err != nil {
			return nil, fmt.Errorf("daemon: repl-snapshot payload: %v", err)
		}
		snap, err := s.snapshot(&pull)
		if err != nil {
			return nil, err
		}
		return marshalRepl(req.ID, snap)
	default:
		return nil, fmt.Errorf("daemon: replication server: unknown kind %q", req.Kind)
	}
}

func marshalRepl(id uint64, v any) (*transport.Response, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return &transport.Response{ID: id, Repl: b}, nil
}

// checkTerm applies the fencing protocol shared by pulls and snapshot
// requests, returning a rejection reason ("" = proceed).
func (s *ReplServer) checkTerm(reqTerm uint64) string {
	myTerm := s.d.Term()
	if reqTerm > myTerm {
		// Someone with a newer term exists: this node is deposed. The
		// demotion latches — even if that someone never calls again.
		s.d.fenceBy(reqTerm)
		return RejectFenced
	}
	if s.d.Fenced() {
		return RejectFenced
	}
	if reqTerm < myTerm {
		return RejectStaleTerm
	}
	if s.d.role.Load() != rolePrimary {
		return RejectNotPrimary
	}
	return ""
}

func (s *ReplServer) pull(pull *ReplPull) (*ReplBatch, error) {
	myTerm := s.d.Term()
	if reject := s.checkTerm(pull.Term); reject != "" {
		return &ReplBatch{Term: myTerm, Reject: reject}, nil
	}
	applied, err := s.d.flushApplied()
	if err != nil {
		return nil, err
	}
	if pull.After > applied {
		return &ReplBatch{Term: myTerm, Reject: RejectAhead, Applied: applied}, nil
	}
	max := s.batch
	if pull.Max > 0 && pull.Max < max {
		max = pull.Max
	}
	events, err := s.read(pull.ID, pull.After, max)
	if err != nil {
		return nil, err
	}
	// Gap detection: the WAL was flushed above, so if the follower sits
	// below the primary's applied position the log must be able to serve
	// After+1. When it starts later (this primary was itself born from a
	// snapshot and its log is truncated below that point), log shipping
	// cannot bridge the gap — bootstrap instead.
	if (len(events) == 0 && pull.After < applied) ||
		(len(events) > 0 && events[0].Seq != pull.After+1) {
		s.dropCursor(pull.ID)
		return &ReplBatch{Term: myTerm, NeedSnapshot: true, Applied: applied}, nil
	}
	resp := &ReplBatch{Term: myTerm, Events: events, Applied: applied}
	end := pull.After + uint64(len(events))
	if dig, ok := s.d.DigestAt(end); ok {
		resp.Digest, resp.DigestSeq = dig.String(), end
	}
	return resp, nil
}

// read streams up to max events after seq from the WAL, reusing the
// follower's cursor when it is positioned right (the steady state: each
// pull resumes exactly where the last left off, so shipping is O(batch)
// per call, not O(log)).
func (s *ReplServer) read(id string, after uint64, max int) ([]eventlog.Event, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.cursors[id]
	if c == nil || c.next != after+1 {
		if c != nil {
			c.fl.Close()
		}
		fl, err := eventlog.Follow(s.walPath, after)
		if err != nil {
			return nil, fmt.Errorf("daemon: opening WAL cursor for %q: %w", id, err)
		}
		c = &replCursor{fl: fl, next: after + 1}
		s.cursors[id] = c
	}
	var events []eventlog.Event
	for len(events) < max {
		e, ok, err := c.fl.Next()
		if err != nil {
			// The cursor is poisoned (mid-log corruption?): drop it so the
			// next pull re-opens, and surface the error to the follower.
			c.fl.Close()
			delete(s.cursors, id)
			return nil, err
		}
		if !ok {
			break
		}
		events = append(events, e)
	}
	// The cursor serves After = c.next-1 next time. An empty read leaves
	// it where it was; a gap (first event past after+1) is the caller's
	// to detect — it drops the cursor and answers NeedSnapshot.
	c.next = after + uint64(len(events)) + 1
	if n := len(events); n > 0 {
		c.next = events[n-1].Seq + 1
	}
	return events, nil
}

func (s *ReplServer) dropCursor(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c := s.cursors[id]; c != nil {
		c.fl.Close()
		delete(s.cursors, id)
	}
}

// Close releases every cached WAL cursor.
func (s *ReplServer) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, c := range s.cursors {
		c.fl.Close()
		delete(s.cursors, id)
	}
}

func (s *ReplServer) snapshot(pull *ReplPull) (*ReplSnap, error) {
	myTerm := s.d.Term()
	if reject := s.checkTerm(pull.Term); reject != "" {
		return &ReplSnap{Term: myTerm, Reject: reject}, nil
	}
	snap, err := s.d.SnapshotNow()
	if err != nil {
		return nil, err
	}
	return &ReplSnap{Term: myTerm, Snapshot: snap}, nil
}
