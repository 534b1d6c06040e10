package opt

// This file and exact.go solve the classical (static) bin packing
// problem: pack a multiset of sizes into the fewest bins. OPT_total
// needs the classical optimum OPT(R, t) of every segment, because the
// offline adversary may repack everything at any time. exact.go's
// branch and bound starts from the Martello–Toth bound lowerL2 below
// and the First Fit Decreasing / Best Fit Decreasing heuristics above.

import (
	"math"
	"sort"
)

// eps tolerates float64 accumulation error in capacity checks, matching
// the online simulator's admission tolerance.
const eps = 1e-9

// firstFit packs the sizes in the given order with the First Fit rule and
// returns the number of bins used. Sizes must lie in (0, capacity].
func firstFit(sizes []float64, capacity float64) int {
	var levels []float64
	for _, s := range sizes {
		placed := false
		for i, lv := range levels {
			if lv+s <= capacity+eps {
				levels[i] += s
				placed = true
				break
			}
		}
		if !placed {
			levels = append(levels, s)
		}
	}
	return len(levels)
}

// firstFitDecreasing sorts sizes in non-increasing order and applies First
// Fit. FFD uses at most 11/9*OPT + 6/9 bins (Dósa), making it a tight
// upper bound for the exact solver's initial incumbent.
func firstFitDecreasing(sizes []float64, capacity float64) int {
	s := append([]float64(nil), sizes...)
	sort.Sort(sort.Reverse(sort.Float64Slice(s)))
	return firstFit(s, capacity)
}

// bestFitDecreasing sorts sizes in non-increasing order and places each
// into the fullest bin with room.
func bestFitDecreasing(sizes []float64, capacity float64) int {
	s := append([]float64(nil), sizes...)
	sort.Sort(sort.Reverse(sort.Float64Slice(s)))
	var levels []float64
	for _, x := range s {
		best := -1
		for i, lv := range levels {
			if lv+x <= capacity+eps && (best < 0 || lv > levels[best]) {
				best = i
			}
		}
		if best < 0 {
			levels = append(levels, x)
		} else {
			levels[best] += x
		}
	}
	return len(levels)
}

// lowerL1 returns the continuous lower bound ceil(sum/capacity).
func lowerL1(sizes []float64, capacity float64) int {
	var sum float64
	for _, s := range sizes {
		sum += s
	}
	if sum <= eps {
		return 0
	}
	return int(math.Ceil(sum/capacity - 1e-12))
}

// lowerL2 returns the Martello–Toth lower bound: for each threshold alpha in
// (0, capacity/2], items larger than capacity-alpha each need their own
// bin, items in (capacity/2, capacity-alpha] need distinct bins too, and
// the mid-range mass in [alpha, capacity/2] must fit in the slack those
// bins leave. lowerL2 dominates lowerL1 and is exact on many instances.
func lowerL2(sizes []float64, capacity float64) int {
	if len(sizes) == 0 {
		return 0
	}
	best := lowerL1(sizes, capacity)
	// Candidate alphas: distinct sizes <= capacity/2, plus the residuals
	// capacity-s of large items (alpha = 0 is handled by lowerL1). Only values
	// in (0, capacity/2] are valid thresholds.
	var alphas []float64
	for _, s := range sizes {
		if s <= capacity/2+eps {
			alphas = append(alphas, s)
		} else if r := capacity - s; r > eps && r <= capacity/2+eps {
			alphas = append(alphas, r)
		}
	}
	sort.Float64s(alphas)
	alphas = dedup(alphas)
	for _, alpha := range alphas {
		var n1, n2 int
		var sum2, sum3 float64
		for _, s := range sizes {
			switch {
			case s > capacity-alpha+eps:
				n1++
			case s > capacity/2+eps:
				n2++
				sum2 += s
			case s >= alpha-eps:
				sum3 += s
			}
		}
		slack := float64(n2)*capacity - sum2
		extra := 0
		if sum3 > slack+eps {
			extra = int(math.Ceil((sum3-slack)/capacity - 1e-12))
		}
		if lb := n1 + n2 + extra; lb > best {
			best = lb
		}
	}
	return best
}

func dedup(sorted []float64) []float64 {
	out := sorted[:0]
	for i, v := range sorted {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// firstFitVec packs vector sizes (each a point in [0, capacity]^d) with
// the First Fit rule under per-dimension capacity, returning the bin
// count. It is the heuristic upper bound used for the multi-dimensional
// extension experiments (paper Sec. IX future work).
func firstFitVec(sizes [][]float64, capacity float64) int {
	var levels [][]float64
	for _, v := range sizes {
		placed := false
		for _, lv := range levels {
			ok := len(lv) == len(v)
			for d := 0; ok && d < len(v); d++ {
				if lv[d]+v[d] > capacity+eps {
					ok = false
				}
			}
			if ok {
				for d := range v {
					lv[d] += v[d]
				}
				placed = true
				break
			}
		}
		if !placed {
			levels = append(levels, append([]float64(nil), v...))
		}
	}
	return len(levels)
}

// lowerL1Vec returns the per-dimension continuous lower bound for vector sizes:
// the max over dimensions of ceil(load_d / capacity).
func lowerL1Vec(sizes [][]float64, capacity float64) int {
	if len(sizes) == 0 {
		return 0
	}
	d := len(sizes[0])
	best := 0
	for k := 0; k < d; k++ {
		var sum float64
		for _, v := range sizes {
			sum += v[k]
		}
		if sum > eps {
			if lb := int(math.Ceil(sum/capacity - 1e-12)); lb > best {
				best = lb
			}
		}
	}
	return best
}
