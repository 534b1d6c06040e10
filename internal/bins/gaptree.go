package bins

import "dbp/internal/item"

// gapTree is a segment tree over the index's slots — the open bins in
// opening order, plus the closed slots awaiting compaction — whose nodes
// store the per-dimension maximum gap key of their range, laid out with
// stride dim (node p's key in dimension d lives at node[p*dim+d]; a
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
// A node holds gap keys, item.OrderKey of the gaps, not the gaps: on
// non-NaN floats the key is a bijection that keeps order and equality, so
// the maximum of keys is the key of the maximum gap and every key
// comparison below answers exactly the float comparison of the gap with
// the threshold — no answer differs from a tree of floats. Integer keys
// let pullAbove carry the running maximum up in a register and descend
// pick a child by a flag rather than a branch.
//
// A closed slot, and each leaf past the last slot, holds the tombstone
// key 0, which item.OrderKey gives NaN alone: it is strictly below the key
// of every other float, -Inf's included, so a tombstone fails every
// non-NaN threshold and can never win a query or be visited. A gap is
// never NaN (item.CheckDemand admits no NaN demand). A NaN threshold's
// key is the tombstone's and every leaf reaches it: descend answers it
// with no slot, as no gap is >= NaN, and mayFit prunes nothing for it, as
// no float comparison with NaN fails.
//
// Pruning compares against demand minus a 2*Eps slack rather than the
// exact admission threshold: the leaf gaps are one float subtraction
// (Capacity - level) away from the level-based admission test, and the
// slack (1e-9, nine orders above the rounding error of O(1) operands)
// guarantees the rearrangement can never prune a bin the exact test
// would admit. A borderline subtree is visited and rejected at its
// leaves; answers are unaffected.
type gapTree struct {
	dim  int
	n    int      // slots handed out (leaves in use)
	size int      // power-of-two leaf count
	node []uint64 // stride-dim segment tree over cached gap keys (max per dim)
}

// tombstone is the key of a closed slot or an unused leaf.
const tombstone uint64 = 0

// build lays the tree out afresh, in O(n), over the index's slots (nil
// where the bin has closed) at the smallest power-of-two leaf count
// holding them: for the first query that reads the tree, when add runs
// out of leaves, and after Index.compact renumbers the slots.
func (t *gapTree) build(slots []*Bin) {
	t.n, t.size = len(slots), 1
	for t.size < t.n {
		t.size *= 2
	}
	t.node = make([]uint64, 2*t.size*t.dim) // every key a tombstone
	for i, b := range slots {
		if b != nil {
			t.write(i, b)
		}
	}
	for p := t.size - 1; p >= 1; p-- {
		l, r := 2*p*t.dim, (2*p+1)*t.dim
		for d := 0; d < t.dim; d++ {
			t.node[p*t.dim+d] = max(t.node[l+d], t.node[r+d])
		}
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

// write copies the keys of the bin's current per-dimension gaps into
// leaf i.
func (t *gapTree) write(i int, b *Bin) {
	leaf := t.node[(t.size+i)*t.dim:][:t.dim]
	for d := range leaf {
		leaf[d] = item.OrderKey(b.GapAt(d))
	}
}

// update refreshes leaf i from the bin's current per-dimension gaps.
func (t *gapTree) update(i int, b *Bin) {
	t.write(i, b)
	t.pullAbove(i)
}

// tombstone marks leaf i closed in every dimension.
func (t *gapTree) tombstone(i int) {
	clear(t.node[(t.size+i)*t.dim:][:t.dim])
	t.pullAbove(i)
}

// pullAbove recomputes every ancestor of leaf i after its keys changed,
// one dimension at a time. The walk carries the running maximum up: a
// parent's key is the maximum of the child just stored and its sibling,
// so each level reads one sibling and stores one key, and never reads
// back what it stored. It runs to the root even where an ancestor is
// unchanged: a test for that costs a mispredicted branch per level, more
// than the levels it would skip.
func (t *gapTree) pullAbove(i int) {
	node, dim := t.node, t.dim
	for d := 0; d < dim; d++ {
		p := t.size + i
		m := node[p*dim+d]
		for ; p > 1; p >>= 1 {
			m = max(m, node[(p^1)*dim+d])
			node[(p>>1)*dim+d] = m
		}
	}
}

// mayFit reports whether node p's range could contain a bin fitting the
// pruned demand threshold keys (need[d] = OrderKey(sizes[d] - 2*Eps),
// len(need) == dim).
func (t *gapTree) mayFit(p int, need []uint64) bool {
	base := p * t.dim
	for d, k := range need {
		if t.node[base+d] < k {
			return false
		}
	}
	return true
}

// descend walks from the root to a leaf whose dimension-0 key is >= k,
// trying the child on the given side (0 left, 1 right) first at every
// level, and returns its slot — the lowest (side 0) or highest (side 1)
// such slot — or -1, also for the tombstone key (a NaN threshold, which
// no gap reaches). Each level picks its child by a flag, not a branch:
// First Fit's choices follow the data and would mispredict.
func (t *gapTree) descend(k uint64, side int) int {
	node, dim := t.node, t.dim
	if k == tombstone || node[dim] < k {
		return -1
	}
	p := 1
	for p < t.size {
		c := 2*p + side
		x := 0
		if node[c*dim] < k {
			x = 1
		}
		p = c ^ x
	}
	return p - t.size // a leaf past the last slot is a tombstone, below k
}
