package bins

import "math"

// gapTree is a segment tree over the index's slots — the open bins in
// opening order, plus the closed slots awaiting compaction — whose nodes
// store the per-dimension maximum gap of their range, laid out with
// stride dim (node p's gap in dimension d lives at node[p*dim+d]; a
// scalar fleet is the stride-1 case). It answers the positional queries,
// First Fit and Last Fit at every d (Index.firstHit):
//
//   - descend: the lowest-/highest-indexed slot whose dimension-0 gap is
//     >= s, by one exact root-to-leaf walk, O(log B) — at d = 1 the probe
//     that answers almost every query (its bin is then checked with
//     Bin.FitsDemand), and Index.FirstFitting's whole answer.
//   - mayFit: the pruning test of the depth-first search that serves
//     every d. A subtree can be skipped as soon as ONE dimension's range
//     maximum falls short of the demand: no bin inside can fit. The
//     surviving leaves are then verified with the exact Bin.FitsDemand
//     comparison, so the search returns precisely the bin a linear scan
//     of the open list would — the tree only prunes, it never decides.
//
// Pruning compares against demand minus a 2*Eps slack rather than the
// exact admission threshold: the leaf gaps are one float subtraction
// (Capacity - level) away from the level-based admission test, and the
// slack (1e-9, nine orders above the rounding error of O(1) operands)
// guarantees the rearrangement can never prune a bin the exact test
// would admit. A borderline subtree is visited and rejected at its
// leaves; answers are unaffected.
//
// A closed slot is tombstoned with -Inf in every dimension, which fails
// every comparison above, so it can never win a query or be visited.
type gapTree struct {
	dim  int
	n    int       // slots handed out (leaves in use)
	size int       // power-of-two leaf count
	node []float64 // stride-dim segment tree over cached gaps (max per dim)
}

// build lays the tree out afresh, in O(n), over the index's slots (nil
// where the bin has closed) at the smallest power-of-two leaf count
// holding them: for the first query that reads the tree, when add runs
// out of leaves, and after Index.compact renumbers the slots.
func (t *gapTree) build(slots []*Bin) {
	t.n, t.size = len(slots), 1
	for t.size < t.n {
		t.size *= 2
	}
	t.node = make([]float64, 2*t.size*t.dim)
	for i := range t.node {
		t.node[i] = math.Inf(-1)
	}
	for i, b := range slots {
		if b != nil {
			t.write(i, b)
		}
	}
	for p := t.size - 1; p >= 1; p-- {
		t.pull(p)
	}
}

// add appends the leaf of the last slot, a bin that has just opened.
func (t *gapTree) add(slots []*Bin) {
	if t.n++; t.n > t.size {
		t.build(slots)
	} else {
		t.update(t.n-1, slots[t.n-1])
	}
}

// pull recomputes node p's per-dimension maxima from its children.
func (t *gapTree) pull(p int) {
	l, r := 2*p*t.dim, (2*p+1)*t.dim
	for d := 0; d < t.dim; d++ {
		t.node[p*t.dim+d] = max(t.node[l+d], t.node[r+d])
	}
}

// leaf returns leaf i's cached per-dimension gaps (a view, not a copy).
func (t *gapTree) leaf(i int) []float64 {
	return t.node[(t.size+i)*t.dim : (t.size+i+1)*t.dim]
}

// pullAbove recomputes every ancestor of leaf i after its gaps changed.
func (t *gapTree) pullAbove(i int) {
	for p := (t.size + i) >> 1; p >= 1; p >>= 1 {
		t.pull(p)
	}
}

// write copies the bin's current per-dimension gaps into leaf i.
func (t *gapTree) write(i int, b *Bin) {
	leaf := t.leaf(i)
	for d := range leaf {
		leaf[d] = b.GapAt(d)
	}
}

// update refreshes leaf i from the bin's current per-dimension gaps.
func (t *gapTree) update(i int, b *Bin) {
	t.write(i, b)
	t.pullAbove(i)
}

// tombstone marks leaf i closed (-Inf in every dimension).
func (t *gapTree) tombstone(i int) {
	leaf := t.leaf(i)
	for d := range leaf {
		leaf[d] = math.Inf(-1)
	}
	t.pullAbove(i)
}

// mayFit reports whether node p's range could contain a bin fitting the
// pruned demand thresholds (need[d] = sizes[d] - 2*Eps, len(need) == dim).
func (t *gapTree) mayFit(p int, need []float64) bool {
	base := p * t.dim
	for d, nd := range need {
		if t.node[base+d] < nd {
			return false
		}
	}
	return true
}

// descend walks from the root to a leaf whose dimension-0 gap is >= s,
// trying the child on the given side (0 left, 1 right) first at every
// level, and returns its slot — the lowest (side 0) or highest (side 1)
// such slot — or -1; the comparison is exact.
func (t *gapTree) descend(s float64, side int) int {
	if t.node[t.dim] < s {
		return -1
	}
	p := 1
	for p < t.size {
		if c := 2*p + side; t.node[c*t.dim] >= s {
			p = c
		} else {
			p = c ^ 1
		}
	}
	if idx := p - t.size; idx < t.n {
		return idx
	}
	return -1
}
