package schedule

import "math"

// Generic ETC-matrix kernel for the float32 backing
// (etc.GenSpec.Float32, halving a frontier matrix's footprint): the one
// evaluation loop hot enough to read the flat matrix directly, bestOn's
// staircase scan, dispatches once on the backing and runs this stencil
// under ETC32, mirroring the hand-written float64 loop at its call site
// line for line. (The float64 original stays hand-written rather than
// instantiating this with E = float64: the generic instantiation measured
// 10–40% slower on the scan benchmarks, and the loop carries the
// bit-identity contract.) Entries are widened to float64 at the load; all
// arithmetic downstream of the load is identical for both backings.
//
// Everything else reads through At, whose backing branch is one perfectly
// predicted test per call.

type etcElem interface{ ~float32 | ~float64 }

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
