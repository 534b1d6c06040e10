package opt

import "sort"

// nodeLimit bounds the branch-and-bound search; it is generous
// enough to solve every instance arising in this repository's experiments
// (a few dozen concurrently active items) in microseconds-to-milliseconds.
const nodeLimit = 2_000_000

// exactBins returns the minimum number of unit bins for the sizes, solving to
// optimality with branch and bound. It panics only on sizes outside
// (0, capacity] (caller bug). For adversarially hard instances the search
// may be large; use exactBinsLimit to bound it.
func exactBins(sizes []float64, capacity float64) int {
	n, ok := exactBinsLimit(sizes, capacity, nodeLimit)
	if !ok {
		// Fall back to the FFD upper bound; on pathological instances this
		// is still within 11/9 of optimal. Callers needing certainty use
		// exactBinsLimit directly.
		return firstFitDecreasing(sizes, capacity)
	}
	return n
}

// exactBinsLimit solves bin packing to optimality with at most maxNodes
// search nodes. It returns (count, true) when the search completed and
// (best incumbent, false) when the node budget ran out; the incumbent is
// never worse than min(FFD, BFD). The search allocates nothing per node.
func exactBinsLimit(sizes []float64, capacity float64, maxNodes int) (int, bool) {
	if len(sizes) == 0 {
		return 0, true
	}
	s := append([]float64(nil), sizes...)
	sort.Sort(sort.Reverse(sort.Float64Slice(s)))
	if s[len(s)-1] <= 0 || s[0] > capacity+eps {
		panic("opt: size outside (0, capacity]")
	}

	lb := lowerL2(s, capacity)
	ub := firstFitDecreasing(s, capacity)
	if bfd := bestFitDecreasing(s, capacity); bfd < ub {
		ub = bfd
	}
	if lb >= ub {
		return ub, true
	}

	b := &bnb{
		sizes:    s,
		capacity: capacity,
		best:     ub,
		lower:    lb,
		nodeCap:  maxNodes,
	}
	b.levels = make([]float64, 0, ub)
	b.search(0)
	return b.best, b.best <= b.lower || b.nodes < b.nodeCap
}

type bnb struct {
	sizes    []float64
	capacity float64
	levels   []float64 // open bin levels in creation order
	best     int
	lower    int // certified lower bound: the search stops once best reaches it
	nodes    int
	nodeCap  int
}

// done reports that the search should unwind: the node budget is spent,
// or the incumbent meets the lower bound and so is optimal.
func (b *bnb) done() bool { return b.nodes >= b.nodeCap || b.best <= b.lower }

// fits reports whether an item of size s fits in a bin at level lv.
func (b *bnb) fits(lv, s float64) bool { return lv+s <= b.capacity+eps }

func (b *bnb) search(i int) {
	if b.done() {
		return
	}
	b.nodes++
	if i == len(b.sizes) {
		if len(b.levels) < b.best {
			b.best = len(b.levels)
		}
		return
	}
	// Prune once the open bins alone reach the incumbent. A continuous
	// bound on the remaining items adds nothing here: open bins plus
	// ⌈(remaining size − free space)/capacity⌉ is ⌈total/capacity⌉ at
	// every node, which is at most lowerL2 and so below the incumbent.
	if len(b.levels) >= b.best {
		return
	}

	s := b.sizes[i]
	// Try existing bins, skipping duplicates: two bins at the same level
	// (the same key, level to 1e-12) are interchangeable, so branch only
	// on the first that fits.
	for k := range b.levels {
		if !b.fits(b.levels[k], s) || b.triedLevel(k, s) {
			continue
		}
		// Restore the saved level, not lv+s-s, which can differ from lv in
		// the last bit: triedLevel must read every earlier bin at the
		// level it was tried at.
		lv := b.levels[k]
		b.levels[k] = lv + s
		b.search(i + 1)
		b.levels[k] = lv
		if b.done() {
			return
		}
		// Dominance: if the item fills the bin exactly, that placement is
		// optimal — no need to try other bins or a new bin.
		if lv+s >= b.capacity-eps {
			return
		}
	}
	// Try a new bin (only if it can possibly improve on the incumbent).
	if len(b.levels)+1 < b.best {
		b.levels = append(b.levels, s)
		b.search(i + 1)
		b.levels = b.levels[:len(b.levels)-1]
	}
}

// triedLevel reports whether an earlier bin that also fits s has bin k's
// level key, so the search has already branched on an equivalent bin.
func (b *bnb) triedLevel(k int, s float64) bool {
	key := levelKey(b.levels[k])
	for _, lv := range b.levels[:k] {
		if b.fits(lv, s) && levelKey(lv) == key {
			return true
		}
	}
	return false
}

func levelKey(lv float64) int64 { return int64(lv * 1e12) }
