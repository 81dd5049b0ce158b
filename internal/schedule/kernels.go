package schedule

import "math"

// Generic ETC-matrix kernels for the float32 backing
// (etc.GenSpec.Float32, halving a frontier matrix's footprint): the few
// evaluation loops hot enough to read the flat matrix directly dispatch
// once on the backing and run these stencils under ETC32, mirroring the
// hand-written float64 loops at their call sites line for line. (The
// float64 originals stay hand-written rather than instantiating these
// with E = float64: the generic instantiation measured 10–40% slower on
// the scan benchmarks, and those loops carry the bit-identity contract.)
// Entries are widened to float64 at the load; all arithmetic downstream
// of the load is identical for both backings.
//
// Everything else reads through At, whose backing branch is one perfectly
// predicted test per call.

type etcElem interface{ ~float32 | ~float64 }

// swapSweepFill is CompletionAfterSwapSweep's scan of partner machine m's
// job list: per slot, the post-swap completion pair against critical-side
// terms hoisted by the caller (caBase, w) and m's own completion cm.
func swapSweepFill[E etcElem](etc []E, machs, ma, m int, caBase, w, cm float64, jobs []int32, aOut, bOut []float64) {
	for k, b := range jobs {
		row := int(b) * machs
		aOut[k] = caBase + float64(etc[row+ma])
		bOut[k] = (cm - float64(etc[row+m])) + w
	}
}

// appendPartnerInvariants is BeginSwapScan's per-machine capture: partner
// job b contributes u = ETC[b][crit] and v = completion[m] − ETC[b][m].
func appendPartnerInvariants[E etcElem](etc []E, machs, crit, m int, cm float64, jobs []int32, u, v []float64, ids []int32) ([]float64, []float64, []int32) {
	for _, b := range jobs {
		row := int(b) * machs
		u = append(u, float64(etc[row+crit]))
		v = append(v, cm-float64(etc[row+m]))
		ids = append(ids, b)
	}
	return u, v, ids
}

// bestOnKernel is ScanCache.bestOn's staircase scan: the minimum over
// critical jobs a and partner jobs b on machine m of max(aC, bC), with
// bestOn's lexicographic (value, aPos, b) tie-break. See bestOn for the
// exactness argument; this is the same scan parameterised over the
// matrix element, with the staircase in the caller's su/sc scratch (each
// at least len(jobs) long).
func bestOnKernel[E etcElem](etc []E, machs int, critC, cm float64, critJobs, jobs []int32, crit, m int, su, sc []float64) (float64, int32, int32) {
	steps := 0
	minU := math.Inf(1)
	for k := len(jobs) - 1; k >= 0; k-- {
		row := int(jobs[k]) * machs
		if u := float64(etc[row+crit]); u < minU {
			minU = u
			su[steps], sc[steps] = u, cm-float64(etc[row+m])
			steps++
		}
	}
	best := math.Inf(1)
	bestAPos := int32(-1)
	for apos, a := range critJobs {
		aRow := etc[int(a)*machs : int(a)*machs+machs]
		ca := critC - float64(aRow[crit])
		w := float64(aRow[m])
		lo, hi := 0, steps
		for lo < hi {
			h := int(uint(lo+hi) >> 1)
			if sc[h]+w >= ca+su[h] {
				hi = h
			} else {
				lo = h + 1
			}
		}
		v := math.Inf(1)
		if lo < steps {
			v = sc[lo] + w
		}
		if lo > 0 {
			if x := ca + su[lo-1]; x < v {
				v = x
			}
		}
		if v < best {
			best, bestAPos = v, int32(apos)
		}
	}
	if bestAPos < 0 {
		return math.Inf(1), -1, -1
	}
	a := critJobs[bestAPos]
	aRow := etc[int(a)*machs : int(a)*machs+machs]
	ca := critC - float64(aRow[crit])
	w := float64(aRow[m])
	best = math.Inf(1)
	bestB := int32(-1)
	for _, b := range jobs {
		row := int(b) * machs
		x := ca + float64(etc[row+crit])
		if y := (cm - float64(etc[row+m])) + w; y > x {
			x = y
		}
		if x < best || (x == best && b < bestB) {
			best, bestB = x, b
		}
	}
	return best, bestAPos, bestB
}
