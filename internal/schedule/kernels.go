package schedule

import "math"

// Generic ETC-matrix kernel for the float32 backing
// (etc.GenSpec.Float32, halving a frontier matrix's footprint): the one
// evaluation loop hot enough to read the flat matrix directly, the
// critical-swap query, dispatches once on the backing and runs this
// stencil under ETC32, mirroring the hand-written float64 loop
// (ScanCache.criticalSwap) line for line. (The float64 original stays
// hand-written rather than instantiating this with E = float64: the
// generic instantiation measured 10–40% slower on the scan benchmarks,
// and the loop carries the bit-identity contract.) Entries are widened to
// float64 at the load; all arithmetic downstream of the load is identical
// for both backings.
//
// Everything else reads through At, whose backing branch is one perfectly
// predicted test per call.

type etcElem interface{ ~float32 | ~float64 }

// criticalSwapKernel is ScanCache.criticalSwap's pruned query: the
// lexicographic minimum of (max(aC, bC), aPos, b) over every critical job
// and every job on a non-exempt partner machine. See criticalSwap for the
// staircase, the bound and the tie-break; this is the same query
// parameterised over the matrix element.
func criticalSwapKernel[E etcElem](sc *ScanCache, etc []E, crit int, critJobs []int32) (float64, int32, int32) {
	st := sc.st
	machs := st.inst.Machs
	critC := st.completion[crit]
	st.sweepCA = grown(st.sweepCA, len(critJobs))
	ca := st.sweepCA
	for apos, a := range critJobs {
		ca[apos] = critC - float64(etc[int(a)*machs+crit])
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
		su, sy := st.sweepA, st.sweepB
		cm := st.completion[m]
		steps := 0
		minU := math.Inf(1)
		for k := len(jobs) - 1; k >= 0; k-- {
			row := int(jobs[k]) * machs
			if u := float64(etc[row+crit]); u < minU {
				minU = u
				su[steps], sy[steps] = u, cm-float64(etc[row+m])
				steps++
			}
		}
		yMin := sy[0]
		thr := best
		mBest, mAPos := math.Inf(1), int32(-1)
		for apos, a := range critJobs {
			c := ca[apos]
			w := float64(etc[int(a)*machs+m])
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
				v = sy[lo] + w
			}
			if lo > 0 {
				if x := c + su[lo-1]; x < v {
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
		w := float64(etc[int(critJobs[mAPos])*machs+m])
		v, b := math.Inf(1), int32(-1)
		for _, j := range jobs {
			row := int(j) * machs
			x := c + float64(etc[row+crit])
			if y := (cm - float64(etc[row+m])) + w; y > x {
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
