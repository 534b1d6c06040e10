package bins

import (
	"fmt"
	"math"
	"slices"
)

// Index is the ledger-maintained policy index over the open bins: a gap
// tree and up to two treaps, the same at every dimension d (a scalar fleet
// is d = 1).
//
//   - tree, a stride-d max-gap segment tree in opening order (gapTree),
//     answers the positional queries: the scalar FirstFitting/LastFitting
//     by one exact descent on dimension 0, and the vector FirstFittingVec/
//     LastFittingVec/EachFitting by pruned descent — a subtree is skipped
//     as soon as one dimension's maximum cannot accommodate the demand,
//     and each surviving leaf is verified with the exact Bin.FitsDemand
//     comparison, so the answers are bit-identical to a linear scan of
//     the open list, with the tree acting purely as an accelerator
//     (O(log B) when few bins fit, degrading gracefully to the linear
//     visit order when many do).
//   - mins, a treap keyed by (MinGap, index) (levelTree), answers the
//     level queries: TightestFitting, EmptiestFitting and
//     SecondEmptiestFitting by exact key lookups, MaxMinGapFitting by
//     walking key groups downward from the emptiest and verifying each
//     candidate with FitsDemand. MinGap is the dominant-resource
//     scalarization of the gap vector; at d = 1 it is the gap itself, so
//     the three scalar level queries are exact for 1-D demands. On a
//     d >= 2 fleet they order by MinGap as well, and no policy issues
//     them there (vector demands place through the vector queries).
//   - sums, a treap keyed by (TotalGap, index), answers TightestFittingVec
//     — vector Best Fit — by walking upward from the demand's total and
//     verifying each candidate with FitsDemand. At d = 1 TotalGap is
//     MinGap bit for bit, so the query reads mins and sums is never built.
//
// Each structure is built over the open bins (the tree in O(B), a treap
// in O(B log B)) by the first query that reads it — in practice the first
// arrival, over an empty fleet — and from then on every mutation keeps it
// coherent; a structure no query has read costs nothing. So a policy pays
// only for what it reads:
//
//	gap tree   First Fit, Last Fit at any d; Best/Worst/Almost Worst Fit
//	           at d >= 2, DotProductFit and NormBestFit at any d (the
//	           EachFitting rules)
//	mins       Best/Worst/Almost Worst Fit and VectorBestFit at d = 1;
//	           DRWorstFit at any d
//	sums       VectorBestFit at d >= 2
//	none       Next Fit, Next-k Fit, the hybrids, Random and the
//	           predictive and clairvoyant policies, which read the open
//	           list only
//
// Every structure is over the open bins only. A bin takes the next slot
// — a position in bins and the tree leaf of the same number — when it
// opens, so slots are in opening order, and gives it up (nil, tombstoned)
// when it closes; once closed slots outnumber open ones, compact renumbers
// the open bins into the first slots in the same order. Slot order is
// therefore Bin.Index order at all times, First and Last Fit still return
// the lowest and highest Bin.Index, and the tree's size follows the open
// fleet, at an amortised O(1) per closure. A bin's treap node, found by
// its slot in the treap's nodes, holds the bin and its own exact key,
// (scalar, Bin.Index), with a priority hashed from Bin.Index, so neither
// a treap's shape nor any answer depends on slots or on when it was built.
//
// Callers of the scalar queries fold their tolerance into `need`
// (conventionally size - Eps), and all scalar comparisons are exact — no
// epsilon — so query answers are order-independent and reproducible.
type Index struct {
	dim  int
	bins []*Bin // by slot, in opening order; nil where the bin has closed
	live int    // non-nil entries of bins

	// Nil until the first query that reads them.
	tree *gapTree
	mins *levelTree // keyed by MinGap
	sums *levelTree // keyed by TotalGap; never built at d = 1

	// Reusable query scratch (the index is single-writer, like its ledger).
	need  []float64
	stack []int
}

// newIndex creates an index for a ledger of the given dimensionality.
func newIndex(dim int) *Index {
	return &Index{dim: dim}
}

// gaps returns the gap tree, building it over the slots on first use.
func (ix *Index) gaps() *gapTree {
	if ix.tree == nil {
		ix.tree = &gapTree{dim: ix.dim}
		ix.tree.build(ix.bins)
	}
	return ix.tree
}

// levels returns the (MinGap, index) treap, building it on first use.
func (ix *Index) levels() *levelTree {
	if ix.mins == nil {
		ix.mins = newLevelTree((*Bin).MinGap, ix.bins)
	}
	return ix.mins
}

// totals returns the (TotalGap, index) treap, building it on first use;
// at d = 1 that is the MinGap treap, whose keys are the same floats.
func (ix *Index) totals() *levelTree {
	if ix.dim == 1 {
		return ix.levels()
	}
	if ix.sums == nil {
		ix.sums = newLevelTree((*Bin).TotalGap, ix.bins)
	}
	return ix.sums
}

// treaps returns the two treap slots, nil where not built, for the
// mutations that maintain whichever are.
func (ix *Index) treaps() [2]*levelTree { return [2]*levelTree{ix.mins, ix.sums} }

// observeOpen tracks a freshly opened bin (called by the ledger after the
// first item is placed): it takes the next slot.
func (ix *Index) observeOpen(b *Bin) {
	b.slot = len(ix.bins)
	ix.bins = append(ix.bins, b)
	ix.live++
	if ix.tree != nil {
		ix.tree.add(ix.bins)
	}
	for _, t := range ix.treaps() {
		if t != nil {
			t.add(b)
		}
	}
}

// refresh re-reads an open bin's gaps after a level change.
func (ix *Index) refresh(b *Bin) {
	if ix.tree != nil {
		ix.tree.update(b.slot, b)
	}
	for _, t := range ix.treaps() {
		if t != nil {
			t.refresh(b)
		}
	}
}

// remove untracks a bin that closed, and compacts the slots once the
// closed ones outnumber the open ones.
func (ix *Index) remove(b *Bin) {
	if ix.tree != nil {
		ix.tree.tombstone(b.slot)
	}
	for _, t := range ix.treaps() {
		if t != nil {
			t.drop(b)
		}
	}
	ix.bins[b.slot] = nil
	ix.live--
	if len(ix.bins)-ix.live > ix.live {
		ix.compact()
	}
}

// compact renumbers the open bins into slots 0..live-1, preserving their
// order, and rebuilds the tree over exactly those leaves. The slices are
// allocated afresh so that what a shrunken fleet retains follows its size.
func (ix *Index) compact() {
	for _, t := range ix.treaps() {
		if t != nil {
			t.compact(ix.live)
		}
	}
	kept := make([]*Bin, 0, ix.live)
	for _, b := range ix.bins {
		if b != nil {
			b.slot = len(kept)
			kept = append(kept, b)
		}
	}
	ix.bins = kept
	if ix.tree != nil {
		ix.tree.build(kept)
	}
}

// FirstFitting returns the earliest-opened bin with gap >= need, or nil
// (the First Fit query).
func (ix *Index) FirstFitting(need float64) *Bin {
	i := ix.gaps().firstAtLeast(need)
	if i < 0 {
		return nil
	}
	return ix.bins[i]
}

// LastFitting returns the latest-opened bin with gap >= need, or nil
// (the Last Fit query).
func (ix *Index) LastFitting(need float64) *Bin {
	i := ix.gaps().lastAtLeast(need)
	if i < 0 {
		return nil
	}
	return ix.bins[i]
}

// TightestFitting returns the bin with the smallest gap >= need, ties
// toward the earliest opened, or nil (the Best Fit query).
func (ix *Index) TightestFitting(need float64) *Bin {
	n := ix.levels().ceil(need, 0)
	if n == nil {
		return nil
	}
	return n.bin
}

// EmptiestFitting returns the bin with the largest gap, ties toward the
// earliest opened, or nil if even that gap is below need (the Worst Fit
// query).
func (ix *Index) EmptiestFitting(need float64) *Bin {
	t := ix.levels()
	m := t.max()
	if m == nil || m.key < need {
		return nil
	}
	// Lowest index within the maximal-gap group.
	return t.ceil(m.key, 0).bin
}

// SecondEmptiestFitting returns the runner-up of EmptiestFitting under
// the (descending gap, ascending index) order, restricted to gaps >=
// need, or nil when fewer than two bins qualify (the Almost Worst Fit
// query).
func (ix *Index) SecondEmptiestFitting(need float64) *Bin {
	first := ix.EmptiestFitting(need)
	if first == nil {
		return nil
	}
	t := ix.mins
	g := t.nodes[first.slot].key
	// Next bin in the same gap group, if any.
	if n := t.ceil(g, first.Index+1); n != nil && n.key == g {
		return n.bin
	}
	// Otherwise the head of the next-lower gap group, if it still fits.
	p := t.floorBelow(g)
	if p == nil || p.key < need {
		return nil
	}
	return t.ceil(p.key, 0).bin
}

// EachFitting calls visit for every open bin that can accommodate the
// raw demand vector (Bin.FitsDemand, Eps applied internally), in
// ascending opening order, stopping early when visit returns false. It
// is the enumeration primitive score-minimizing vector policies (Best
// Fit variants, dot-product, norm-based) are built from: the tree
// descent prunes whole ranges of bins that cannot fit, and the visit
// order matches a linear scan of the open list exactly.
func (ix *Index) EachFitting(sizes []float64, visit func(*Bin) bool) {
	ix.eachFitting(sizes, false, visit)
}

// FirstFittingVec returns the earliest-opened bin fitting the demand
// vector, or nil — the vector First Fit query.
func (ix *Index) FirstFittingVec(sizes []float64) *Bin {
	var out *Bin
	ix.eachFitting(sizes, false, func(b *Bin) bool { out = b; return false })
	return out
}

// LastFittingVec returns the latest-opened bin fitting the demand
// vector, or nil — the vector Last Fit query.
func (ix *Index) LastFittingVec(sizes []float64) *Bin {
	var out *Bin
	ix.eachFitting(sizes, true, func(b *Bin) bool { out = b; return false })
	return out
}

// eachFitting is the pruned depth-first descent behind the positional
// vector queries; desc flips the child order for highest-index-first
// enumeration. The leaf test is always the exact FitsDemand the linear
// reference applies, so the enumeration is bit-identical to scanning the
// open list — including for a demand of the wrong dimension, which
// FitsDemand rejects at every bin: nothing is visited, and nothing built.
func (ix *Index) eachFitting(sizes []float64, desc bool, visit func(*Bin) bool) {
	if len(sizes) != ix.dim {
		return
	}
	t := ix.gaps()
	need := ix.need[:0]
	for _, s := range sizes {
		need = append(need, s-2*Eps)
	}
	ix.need = need
	stack := append(ix.stack[:0], 1)
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !t.mayFit(p, need) {
			continue
		}
		if p >= t.size {
			if i := p - t.size; i < t.n {
				// A closed slot's -Inf leaf fails mayFit for every demand
				// but a NaN one, which no comparison prunes.
				if b := ix.bins[i]; b != nil && b.FitsDemand(sizes) && !visit(b) {
					break
				}
			}
			continue
		}
		if desc {
			stack = append(stack, 2*p, 2*p+1)
		} else {
			stack = append(stack, 2*p+1, 2*p)
		}
	}
	ix.stack = stack[:0]
}

// MaxMinGapFitting returns the fitting bin with the largest MinGap —
// the emptiest dominant resource — ties toward the earliest opened, or
// nil if no open bin fits (the dominant-resource Worst Fit query). It
// walks (MinGap, index) groups downward from the emptiest, verifying
// each candidate with the exact FitsDemand test, and stops once a
// group's MinGap cannot accommodate even the demand's smallest
// component (below that, no bin can fit: the dimension attaining MinGap
// would already overflow). A demand of the wrong dimension fits no bin,
// so it walks nothing and builds nothing.
func (ix *Index) MaxMinGapFitting(sizes []float64) *Bin {
	if len(sizes) != ix.dim {
		return nil
	}
	t := ix.levels()
	minNeed := math.Inf(1)
	for _, s := range sizes {
		if s < minNeed {
			minNeed = s
		}
	}
	minNeed -= 2 * Eps
	for m := t.max(); m != nil; m = t.floorBelow(m.key) {
		g := m.key
		if g < minNeed {
			return nil
		}
		for n := t.ceil(g, 0); n != nil && n.key == g; n = t.ceil(g, n.idx+1) {
			if n.bin.FitsDemand(sizes) {
				return n.bin
			}
		}
	}
	return nil
}

// TightestFittingVec returns the fitting bin with the smallest TotalGap,
// ties toward the earliest opened, or nil (the vector Best Fit query). It
// walks the (TotalGap, index) treap upward from the demand's total less
// 2*Eps per dimension and returns the first bin that passes the exact
// FitsDemand test — the minimum a scan of the fitting bins would keep. The
// start only prunes: a bin that fits has every gap at least its demand
// component less 2*Eps (the gap tree's slack argument), and float addition
// is monotone, so its TotalGap, summed in the same order from 0.0, is at
// least the threshold. The walk costs O(log B + k), k the bins ahead of
// the answer in that order that do not fit. A demand of the wrong
// dimension fits no bin, so it walks nothing and builds nothing.
func (ix *Index) TightestFittingVec(sizes []float64) *Bin {
	if len(sizes) != ix.dim {
		return nil
	}
	lo := 0.0
	for _, s := range sizes {
		lo += s - 2*Eps
	}
	return ix.totals().firstFitting(lo, sizes)
}

// checkCoherent verifies the index, and each structure a query has built,
// against the ledger's open list; the ledger's CheckInvariants calls it
// when the index is enabled.
func (ix *Index) checkCoherent(open []*Bin) error {
	if closed := len(ix.bins) - ix.live; ix.live != len(open) || closed > ix.live {
		return fmt.Errorf("index holds %d open and %d closed slots for %d open bins", ix.live, closed, len(open))
	}
	if t := ix.tree; t != nil {
		// Leaves, tombstones and every range maximum, as built afresh.
		fresh := gapTree{dim: ix.dim}
		fresh.build(ix.bins)
		if t.n != fresh.n || !slices.Equal(t.node, fresh.node) {
			return fmt.Errorf("gap tree (%d of %d leaves in use) differs from one built over its %d slots", t.n, t.size, len(ix.bins))
		}
	}
	next := 0 // cursor into open: the non-nil slots must list it in order
	for i, b := range ix.bins {
		if b == nil {
			continue
		}
		if next == len(open) || open[next] != b || b.slot != i {
			return fmt.Errorf("index slot %d holds bin %d (slot %d), not the next open bin", i, b.Index, b.slot)
		}
		next++
	}
	for k, t := range ix.treaps() {
		if t == nil {
			continue
		}
		name := [2]string{"min-gap", "total-gap"}[k]
		if len(t.nodes) != len(ix.bins) {
			return fmt.Errorf("%s treap has %d node slots for %d slots", name, len(t.nodes), len(ix.bins))
		}
		for i, b := range ix.bins {
			n := t.nodes[i]
			switch {
			case b == nil && n != nil:
				return fmt.Errorf("closed slot %d keeps %s treap node of bin %d", i, name, n.idx)
			case b != nil && (n == nil || n.bin != b || n.key != t.key(b) || t.find(n.key, n.idx) != n):
				return fmt.Errorf("%s treap does not file open bin %d under (%g, %d)", name, b.Index, t.key(b), b.Index)
			}
		}
		if n := t.count(); n != len(open) {
			return fmt.Errorf("%s treap holds %d keys, want %d open bins", name, n, len(open))
		}
	}
	return nil
}
