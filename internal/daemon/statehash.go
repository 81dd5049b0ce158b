package daemon

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"strings"
)

// stateHashVersion prefixes the wire form of a StateHash. A follower
// that receives a digest of another version cannot compare it with its
// own and stops (ErrDigestVersion); bump the version whenever the terms
// below change.
const stateHashVersion = "s1:"

// ErrDigestVersion is the permanent replication error for a shipped
// digest this node does not compute — an old primary still sending the
// SHA-256 audit digest, or a newer hash version. It is not divergence:
// the states were never compared.
var ErrDigestVersion = errors.New("daemon: digest version mismatch")

// StateHash is the grid's incremental replication digest: a lane-wise
// sum, mod 2^64, of independently mixed 64-bit terms, one per job slot,
// machine slot, free-stack entry and pending-queue entry, plus a term
// over the scalars, completions and flowtime mixed fresh at read time.
// Because the sum is commutative, an event that touches one slot costs
// one subtraction and one addition instead of a walk over the whole
// state. It covers the same fields as the audit Digest, so equal grids
// have equal hashes; it is the tripwire replication checks after every
// batch, not a cryptographic commitment (Digest is that).
type StateHash [2]uint64

// String renders the versioned wire form, "s1:" plus 32 hex digits.
func (h StateHash) String() string {
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], h[0])
	binary.BigEndian.PutUint64(b[8:], h[1])
	return stateHashVersion + hex.EncodeToString(b[:])
}

// parseStateHash reads the wire form. A string without this node's
// version prefix is ErrDigestVersion.
func parseStateHash(s string) (StateHash, error) {
	rest, ok := strings.CutPrefix(s, stateHashVersion)
	if !ok {
		version, _, found := strings.Cut(s, ":")
		if !found {
			version = "unversioned"
		}
		return StateHash{}, fmt.Errorf("%w: got %s digest %q, this node computes %s", ErrDigestVersion, version, s, stateHashVersion)
	}
	b, err := hex.DecodeString(rest)
	if err != nil || len(b) != 16 {
		return StateHash{}, fmt.Errorf("daemon: malformed state hash %q", s)
	}
	return StateHash{binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])}, nil
}

func (h StateHash) add(t StateHash) StateHash { return StateHash{h[0] + t[0], h[1] + t[1]} }
func (h StateHash) sub(t StateHash) StateHash { return StateHash{h[0] - t[0], h[1] - t[1]} }

// Term position tags: the same slot index in two lists must not cancel.
const (
	tagSlot uint64 = iota + 1
	tagMach
	tagFree
	tagPending
	tagScalars
)

// termHasher chains words through two bijective 64-bit finalizers with
// distinct seeds — splitmix64's on lane 0, murmur3's fmix64 on lane 1 —
// so the lanes collide independently.
type termHasher StateHash

func newTerm(tag, idx uint64) termHasher {
	h := termHasher{0x243f6a8885a308d3, 0x13198a2e03707344}
	h.word(tag<<48 ^ idx)
	return h
}

func (h *termHasher) word(w uint64) {
	a := h[0] ^ w
	a ^= a >> 30
	a *= 0xbf58476d1ce4e5b9
	a ^= a >> 27
	a *= 0x94d049bb133111eb
	h[0] = a ^ a>>31
	b := h[1] ^ w
	b ^= b >> 33
	b *= 0xff51afd7ed558ccd
	b ^= b >> 33
	b *= 0xc4ceb9fe1a85ec53
	h[1] = b ^ b>>33
}

// hashState is the maintained part of the grid's StateHash. It stays
// off until the first StateHash read, so grids nobody hashes (a
// replication-free primary, replay and reference grids) pay nothing.
type hashState struct {
	on    bool
	slots []StateHash // current term of each job slot
	machs []StateHash // current term of each machine slot
	sum   StateHash   // job slots + machine slots + free stack
	pend  StateHash   // pending queue
}

func (g *Grid) slotTerm(s int) StateHash {
	js := &g.jobs[s]
	h := newTerm(tagSlot, uint64(s))
	h.word(js.id)
	h.word(uint64(js.state))
	h.word(g.parkKeys[s])
	h.word(math.Float64bits(js.base))
	h.word(uint64(g.st.Assign(s)))
	return StateHash(h)
}

func (g *Grid) machTerm(m int) StateHash {
	ms := &g.machs[m]
	h := newTerm(tagMach, uint64(m))
	h.word(ms.id)
	h.word(math.Float64bits(ms.mult))
	flags := uint64(0)
	if ms.alive {
		flags = 1
	}
	if ms.departed {
		flags |= 2
	}
	h.word(flags)
	return StateHash(h)
}

func listTerm(tag uint64, i int, s int32) StateHash {
	h := newTerm(tag, uint64(i))
	h.word(uint64(s))
	return StateHash(h)
}

func (g *Grid) pendingSum() StateHash {
	var sum StateHash
	for i, s := range g.pending {
		sum = sum.add(listTerm(tagPending, i, s))
	}
	return sum
}

// maintainedSums computes from scratch what hashState maintains,
// filling the kept per-slot terms when slots/machs are non-nil.
func (g *Grid) maintainedSums(slots, machs []StateHash) (sum, pend StateHash) {
	for s := range g.jobs {
		t := g.slotTerm(s)
		if slots != nil {
			slots[s] = t
		}
		sum = sum.add(t)
	}
	for m := range g.machs {
		t := g.machTerm(m)
		if machs != nil {
			machs[m] = t
		}
		sum = sum.add(t)
	}
	for i, s := range g.free {
		sum = sum.add(listTerm(tagFree, i, s))
	}
	return sum, g.pendingSum()
}

// rebuildHash recomputes every maintained term from scratch; the first
// read and grow use it.
func (g *Grid) rebuildHash() {
	h := &g.h
	h.on = true
	h.slots = make([]StateHash, len(g.jobs))
	h.machs = make([]StateHash, len(g.machs))
	h.sum, h.pend = g.maintainedSums(h.slots, h.machs)
}

// readTerm mixes the fields every event may move — sequence and id
// counters, list lengths, the M+1 completions and the flowtime — fresh
// at read time, O(MachCap).
func (g *Grid) readTerm() StateHash {
	h := newTerm(tagScalars, 0)
	h.word(g.nextJobID)
	h.word(g.nextMachID)
	h.word(g.applied)
	h.word(g.counters.Admits)
	h.word(g.parkSeq)
	h.word(uint64(len(g.jobs)))
	h.word(uint64(len(g.pending)))
	h.word(uint64(len(g.free)))
	for m := 0; m <= g.cfg.MachCap; m++ {
		h.word(math.Float64bits(g.st.Completion(m)))
	}
	h.word(math.Float64bits(g.st.Flowtime()))
	return StateHash(h)
}

// StateHash returns the grid's incremental replication digest. The
// first call switches maintenance on; from then on every event keeps
// the sums current in O(changed) and a read costs O(MachCap).
func (g *Grid) StateHash() StateHash {
	if !g.h.on {
		g.rebuildHash()
	}
	return g.h.sum.add(g.h.pend).add(g.readTerm())
}

// checkStateHash recomputes the maintained sums from scratch and
// reports drift; a grid that was never hashed has nothing to drift.
func (g *Grid) checkStateHash() error {
	if !g.h.on {
		return nil
	}
	sum, pend := g.maintainedSums(nil, nil)
	if sum != g.h.sum || pend != g.h.pend {
		return fmt.Errorf("daemon: state hash drifted: maintained %v/%v, recomputed %v/%v", g.h.sum, g.h.pend, sum, pend)
	}
	return nil
}

// rehashSlot refreshes job slot s's term after its fields or its
// assignment changed.
func (g *Grid) rehashSlot(s int) {
	if !g.h.on {
		return
	}
	t := g.slotTerm(s)
	g.h.sum = g.h.sum.sub(g.h.slots[s]).add(t)
	g.h.slots[s] = t
}

// rehashMach refreshes machine slot m's term.
func (g *Grid) rehashMach(m int) {
	if !g.h.on {
		return
	}
	t := g.machTerm(m)
	g.h.sum = g.h.sum.sub(g.h.machs[m]).add(t)
	g.h.machs[m] = t
}

// rehashPending re-sums the pending queue, bounded by the daemon's
// pending cap; removal from the middle shifts every later position.
func (g *Grid) rehashPending() {
	if g.h.on {
		g.h.pend = g.pendingSum()
	}
}

// rehashAdmit follows an admission, which may have moved any job: every
// slot and machine term is refreshed and the pending queue re-summed.
// Admission already copies the whole assignment, so this adds O(JobCap)
// to an O(JobCap) event.
func (g *Grid) rehashAdmit() {
	if !g.h.on {
		return
	}
	for s := range g.jobs {
		g.rehashSlot(s)
	}
	for m := range g.machs {
		g.rehashMach(m)
	}
	g.rehashPending()
}

// popFree takes the most recently parked free slot.
func (g *Grid) popFree() int32 {
	n := len(g.free) - 1
	s := g.free[n]
	if g.h.on {
		g.h.sum = g.h.sum.sub(listTerm(tagFree, n, s))
	}
	g.free = g.free[:n]
	return s
}

// pushFree returns slot s to the free stack.
func (g *Grid) pushFree(s int32) {
	if g.h.on {
		g.h.sum = g.h.sum.add(listTerm(tagFree, len(g.free), s))
	}
	g.free = append(g.free, s)
}

// pushPending queues slot s for admission.
func (g *Grid) pushPending(s int32) {
	if g.h.on {
		g.h.pend = g.h.pend.add(listTerm(tagPending, len(g.pending), s))
	}
	g.pending = append(g.pending, s)
}
