package schedule

import "math"

// ScanCache answers the search methods' neighborhood queries against one
// State. It has two sides.
//
// The move side memoizes the frozen-state probe context of
// BeginMoveScan, keyed on the state's epoch (advanced by every commit):
// between two commits every move probe and every accept baseline is
// served from it without re-reading the state or re-walking the
// tournament tree. Move neighborhoods scored by the scalarised fitness do
// not factorize per machine — a candidate's fitness folds the flowtime
// and completions of every machine — so the global epoch is the right key.
//
// The swap side is one pruned query over every partner machine,
// BestCriticalSwap: the LMCTS neighborhood pairs each job on the critical
// machine with each job elsewhere and asks for the minimal
// max(aC, bC) completion pair. Nothing is memoized across queries: an
// accepted swap always takes a job off the critical machine and every
// cMA offspring starts from a fresh SetSchedule, so a per-machine result
// would not be reused.
//
// Per partner machine the query builds a staircase of the machine's
// non-dominated partners (see criticalSwap), then for each critical job
// takes an O(1) lower bound on the job's best pair there and skips the
// job's binary search when the bound already exceeds the best value
// found so far across all machines. Only a machine that improves or ties
// the running best (value, critical position) is rescanned for its
// smallest partner id. The result is the lexicographic minimum of
// (value, critical job's SPT position, partner id) over all pairs — the
// winner of the ascending-id pair scan, bit for bit. scancache_test.go
// pins the query against that scan on both matrix backings, with
// tie-heavy, gridd-shaped and exempt-machine instances and a fuzz target.
type ScanCache struct {
	st *State
	o  Objective

	move      MoveScan
	moveEpoch uint64 // epoch the context was captured at; 0 = never

	// searches counts the staircase binary searches BestCriticalSwap
	// ran; white-box tests read it to pin the pruning.
	searches uint64
}

// Scans returns the state's scan cache bound to objective o. Changing
// the objective invalidates the move-side context. Allocation-free.
func (st *State) Scans(o Objective) *ScanCache {
	sc := &st.scanCache
	if sc.st == nil {
		sc.st = st
		sc.o = o
	} else if sc.o != o {
		sc.o = o
		sc.moveEpoch = 0
	}
	return sc
}

// freshenMove recaptures the frozen-state probe context iff the state
// changed since the last capture.
func (sc *ScanCache) freshenMove() {
	if sc.moveEpoch != sc.st.epoch {
		sc.move = sc.st.BeginMoveScan(sc.o)
		sc.moveEpoch = sc.st.epoch
	}
}

// Fitness returns the state's current fitness under the cache's
// objective — bit-identical to Objective.Of, served from the cached probe
// context between commits.
func (sc *ScanCache) Fitness() float64 {
	sc.freshenMove()
	return sc.move.cur
}

// FitnessAfterMove is State.FitnessAfterMove through the cached probe
// context: bit-identical, with the tournament-tree walk memoized across
// every probe between two commits (the LM and SA/tabu candidate loops).
func (sc *ScanCache) FitnessAfterMove(j, to int) float64 {
	sc.freshenMove()
	return sc.move.FitnessAfterMove(j, to)
}

// BestMoveTarget scores moving job j to every machine through one batched
// sweep and returns the steepest target with the historical fold: the
// current fitness is the baseline, candidates are scanned in ascending
// machine order with a strict-< fold (so among exact ties the lowest
// target wins), and the job's own machine is returned when no target
// improves — exactly the SLM inner loop, bit for bit.
func (sc *ScanCache) BestMoveTarget(j int) (float64, int) {
	st := sc.st
	fits := st.FitnessAfterMoveSweep(sc.o, j)
	from := st.assign[j]
	bestFit, bestTo := fits[from], from
	for to, f := range fits {
		if to != from && f < bestFit {
			bestFit, bestTo = f, to
		}
	}
	return bestFit, bestTo
}

// BestCriticalSwap returns the best swap between the current critical
// machine and the rest — the LMCTS full-scan neighborhood — as the
// minimal max(aC, bC) completion pair with its jobs (a on the critical
// machine, b elsewhere; b = -1 when no partner exists). The winner is the
// ascending-scan one: strict-< across critical jobs in SPT order,
// smallest partner id within a critical job. Exempt machines
// (SetScanExempt) take part on neither side.
func (sc *ScanCache) BestCriticalSwap() (float64, int, int) {
	st := sc.st
	crit := st.MakespanMachine()
	if st.scanExempt != nil && st.scanExempt[crit] {
		// An exempt machine's jobs are never scanned — when the exempt
		// machine is itself critical (the daemon's parking column with no
		// jobs placed on real machines), no swap involves it either.
		return math.Inf(1), -1, -1
	}
	critJobs := st.machJobs[crit]
	if len(critJobs) == 0 {
		return math.Inf(1), -1, -1
	}
	var v float64
	var apos, b int32
	if st.etc64 == nil {
		// Narrow frontier backing: same query, stenciled over float32
		// (kernels.go). The float64 path stays hand-written — this scan
		// is the hottest loop in the engine, and routing it through the
		// generic instantiation cost about 6% of paper-braun's end-to-end
		// CPU time.
		v, apos, b = criticalSwapKernel(sc, st.inst.ETC32, crit, critJobs)
	} else {
		v, apos, b = sc.criticalSwap(crit, critJobs)
	}
	if b < 0 {
		return math.Inf(1), -1, -1
	}
	return v, int(critJobs[apos]), int(b)
}

// criticalSwap is BestCriticalSwap's query over the float64 backing:
// the lexicographic minimum of (value, aPos, b) over every critical job
// a (at SPT position aPos) and every job b on a non-exempt partner
// machine m, where value is max(aC, bC), the completion pair
// CompletionAfterSwap(a, b) reports. It returns what the brute-force
// pair loop returns, bit for bit, in O(J + |crit|·M·log) instead of
// O(|crit|·J), less where the bound below prunes.
//
// The staircase. With a fixed, partner b's pair is
//
//	x_b = ca + u_b,              ca = critC − ETC[a][crit], u_b = ETC[b][crit]
//	y_b = (cm − v_b) + w,        v_b = ETC[b][m],           w = ETC[a][m]
//
// and rounding is monotone, so x_b never decreases as u_b grows and y_b
// never increases as v_b grows: a partner with u no smaller and v no
// larger than another's cannot have a lower max(x, y), whatever a is.
// The partners no other dominates form a staircase independent of a,
// built in one pass by walking m's (v, id)-sorted list from its tail and
// keeping each job whose u undercuts every job kept so far. Along the
// staircase x is non-increasing and y non-decreasing, so for each a the
// minimum is min(x_{k−1}, y_k) at the first step k with y_k ≥ x_k, found
// by binary search. Steps tied on v may both be kept; the two orders
// still hold. ca does not depend on m, so it is computed once per query.
//
// The bound. The last step holds the machine's smallest u and the first
// step the largest v, so by the same monotonicity every pair of a on m
// is at least lb = max(ca + u_min, (cm − v_max) + w). A critical job
// whose lb exceeds the best value found so far — over earlier machines
// and earlier critical jobs of this one — cannot reach it and is skipped
// without a search. A bound equal to the best is searched, since a tie
// may still win on position or partner id.
//
// Ties. Per machine, the per-a minima fold strictly in SPT order, so the
// machine's first critical job reaching its minimum wins, as in the pair
// loop. Only when that (value, aPos) improves or ties the running best
// is the job's row rescanned over all of m's jobs with the pair loop's
// arithmetic and smallest-id tie-break; the running best then takes the
// lexicographically smaller of the two triples, so a tie across machines
// goes to the smaller partner id.
//
// The staircase lives in the state's sweep buffers, grown to the longest
// partner list seen, never to the job count; the critical context in a
// buffer grown to the longest critical list.
func (sc *ScanCache) criticalSwap(crit int, critJobs []int32) (float64, int32, int32) {
	st := sc.st
	etcs := st.etc64
	machs := st.inst.Machs
	critC := st.completion[crit]
	st.sweepCA = grown(st.sweepCA, len(critJobs))
	ca := st.sweepCA
	for apos, a := range critJobs {
		ca[apos] = critC - etcs[int(a)*machs+crit]
	}
	best := math.Inf(1)
	bestAPos, bestB := int32(-1), int32(-1)
	searches := uint64(0)
	for m, jobs := range st.machJobs {
		if m == crit || len(jobs) == 0 || (st.scanExempt != nil && st.scanExempt[m]) {
			continue
		}
		if len(jobs) > len(st.sweepA) {
			st.sweepA = grown(st.sweepA, len(jobs))
			st.sweepB = grown(st.sweepB, len(jobs))
		}
		// su[k] = u and sy[k] = cm − v of the k-th step, tail first.
		su, sy := st.sweepA, st.sweepB
		cm := st.completion[m]
		steps := 0
		minU := math.Inf(1)
		for k := len(jobs) - 1; k >= 0; k-- {
			row := int(jobs[k]) * machs
			if u := etcs[row+crit]; u < minU {
				minU = u
				su[steps], sy[steps] = u, cm-etcs[row+m]
				steps++
			}
		}
		yMin := sy[0]
		thr := best
		mBest, mAPos := math.Inf(1), int32(-1)
		for apos, a := range critJobs {
			c := ca[apos]
			w := etcs[int(a)*machs+m]
			lb := c + minU
			if y := yMin + w; y > lb {
				lb = y
			}
			if lb > thr {
				continue
			}
			searches++
			lo, hi := 0, steps
			for lo < hi {
				h := int(uint(lo+hi) >> 1)
				if sy[h]+w >= c+su[h] {
					hi = h
				} else {
					lo = h + 1
				}
			}
			v := math.Inf(1)
			if lo < steps {
				v = sy[lo] + w // y ≥ x: the pair's max is y
			}
			if lo > 0 {
				if x := c + su[lo-1]; x < v { // y < x: the pair's max is x
					v = x
				}
			}
			if v < mBest {
				mBest, mAPos = v, int32(apos)
				if v < thr {
					thr = v
				}
			}
		}
		if mAPos < 0 || mBest > best || (mBest == best && mAPos > bestAPos) {
			continue
		}
		c := ca[mAPos]
		w := etcs[int(critJobs[mAPos])*machs+m]
		v, b := math.Inf(1), int32(-1)
		for _, j := range jobs {
			row := int(j) * machs
			x := c + etcs[row+crit]
			if y := (cm - etcs[row+m]) + w; y > x {
				x = y
			}
			if x < v || (x == v && j < b) {
				v, b = x, j
			}
		}
		if v < best || mAPos < bestAPos || b < bestB {
			best, bestAPos, bestB = v, mAPos, b
		}
	}
	sc.searches += searches
	return best, bestAPos, bestB
}
