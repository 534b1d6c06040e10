package bins

import (
	"fmt"
	"math"
	"slices"
)

// Index is the ledger-maintained policy index over the open bins: a gap
// tree and up to two level lists, the same at every dimension d (a scalar
// fleet is d = 1).
//
// Every policy query takes the raw demand vector and admits a bin by the
// exact Bin.FitsDemand comparison the linear reference applies, so each
// answer is bit-identical to a scan of the open list; the structures only
// find candidates. (FirstFitting, on a pre-folded gap threshold, is the
// benchmark ladder's bare descent, not a policy query.)
//
//   - tree, a stride-d max-gap segment tree in opening order (gapTree),
//     answers the positional queries FirstFittingVec/LastFittingVec. At
//     d = 1 one exact descent on the gap finds the answer, verified with
//     FitsDemand; otherwise (and after a borderline miss) a pruned
//     depth-first search stops at the first hit — a subtree is skipped
//     as soon as one dimension's maximum cannot accommodate the demand.
//   - mins, a level list (a sorted list of fixed-capacity blocks,
//     levelList) keyed by (MinGap, index), answers MaxMinGapFitting and
//     SecondEmptiestFitting by walking key groups downward from the
//     emptiest and verifying each candidate with FitsDemand. MinGap is
//     the dominant-resource scalarization of the gap vector; at d = 1 it
//     is the gap itself, so the two are scalar Worst Fit and Almost Worst
//     Fit there.
//   - sums, a level list keyed by (TotalGap, index), answers
//     TightestFittingVec — Best Fit — by walking upward from the demand's
//     total and verifying each candidate with FitsDemand. At d = 1
//     TotalGap is MinGap bit for bit, so the query reads mins and sums is
//     never built.
//
// Each structure is built over the open bins (the tree in O(B), a level
// list in O(B log B)) by the first query that reads it — in practice the
// first arrival, over an empty fleet — and from then on every mutation
// keeps it coherent; a structure no query has read costs nothing. So a
// policy pays only for what it reads:
//
//	gap tree   First Fit, Last Fit at any d
//	mins       Best/Worst/Almost Worst Fit and VectorBestFit at d = 1;
//	           DRWorstFit at any d
//	sums       VectorBestFit at d >= 2
//	none       Next Fit, Next-k Fit, the hybrids, Random, the predictive
//	           and clairvoyant policies, Best/Worst/Almost Worst Fit at
//	           d >= 2, DotProductFit and NormBestFit at any d: they scan
//	           the open list
//
// Every structure is over the open bins only. A bin takes the next slot
// — a position in bins and the tree leaf of the same number — when it
// opens, so slots are in opening order, and gives it up (nil, tombstoned)
// when it closes; once closed slots outnumber open ones, compact renumbers
// the open bins into the first slots in the same order. Slot order is
// therefore Bin.Index order at all times, First and Last Fit still return
// the lowest and highest Bin.Index, and the tree's size follows the open
// fleet, at an amortised O(1) per closure. A level list files each bin
// under its exact key (scalar, Bin.Index) and keeps that key by slot, so
// no answer depends on slots or on when the list was built.
//
// Keys and tree comparisons are exact — no epsilon — so query answers are
// order-independent and reproducible.
type Index struct {
	dim  int
	bins []*Bin // by slot, in opening order; nil where the bin has closed
	live int    // non-nil entries of bins

	// Nil until the first query that reads them.
	tree *gapTree
	mins *levelList // keyed by MinGap
	sums *levelList // keyed by TotalGap; never built at d = 1

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

// levels returns the (MinGap, index) list, building it on first use.
func (ix *Index) levels() *levelList {
	if ix.mins == nil {
		ix.mins = newLevelList((*Bin).MinGap, ix.bins)
	}
	return ix.mins
}

// totals returns the (TotalGap, index) list, building it on first use;
// at d = 1 that is the MinGap list, whose keys are the same floats.
func (ix *Index) totals() *levelList {
	if ix.dim == 1 {
		return ix.levels()
	}
	if ix.sums == nil {
		ix.sums = newLevelList((*Bin).TotalGap, ix.bins)
	}
	return ix.sums
}

// lists returns the two level-list slots, nil where not built, for the
// mutations that maintain whichever are.
func (ix *Index) lists() [2]*levelList { return [2]*levelList{ix.mins, ix.sums} }

// observeOpen tracks a freshly opened bin (called by the ledger after the
// first item is placed): it takes the next slot.
func (ix *Index) observeOpen(b *Bin) {
	b.slot = len(ix.bins)
	ix.bins = append(ix.bins, b)
	ix.live++
	if ix.tree != nil {
		ix.tree.add(ix.bins)
	}
	for _, t := range ix.lists() {
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
	for _, t := range ix.lists() {
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
	for _, t := range ix.lists() {
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
	for _, t := range ix.lists() {
		if t != nil {
			t.compact(ix.bins, ix.live)
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

// FirstFitting returns the earliest-opened bin with gap >= need, or nil,
// by one exact descent on dimension 0. No policy issues it: the benchmark
// ladder times it as the bare First Fit query.
func (ix *Index) FirstFitting(need float64) *Bin {
	i := ix.gaps().descend(need, 0)
	if i < 0 {
		return nil
	}
	return ix.bins[i]
}

// FirstFittingVec returns the earliest-opened bin fitting the raw demand
// vector (Bin.FitsDemand, Eps applied internally), or nil — the First Fit
// query at every d.
func (ix *Index) FirstFittingVec(sizes []float64) *Bin { return ix.firstHit(sizes, 0) }

// LastFittingVec returns the latest-opened bin fitting the demand
// vector, or nil — the Last Fit query at every d.
func (ix *Index) LastFittingVec(sizes []float64) *Bin { return ix.firstHit(sizes, 1) }

// firstHit is the search behind the positional queries: it returns the
// first bin in opening order (side 1: its reverse) that passes the exact
// FitsDemand test the linear reference applies, so the answer is
// bit-identical to scanning the open list — including for a demand of the
// wrong dimension, which FitsDemand rejects at every bin: nothing is
// found, and nothing built.
//
// At d = 1 one exact descent comes first: it finds the first slot whose
// gap reaches s - 2*Eps, and no bin before that slot can fit (the gap
// tree's slack argument). If its bin fits, that is the answer; if no gap
// reaches the threshold, nothing fits. Only a borderline miss, and a NaN
// or -Inf demand, which the descent cannot order, go on to the pruned
// depth-first search that serves every d.
func (ix *Index) firstHit(sizes []float64, side int) *Bin {
	if len(sizes) != ix.dim {
		return nil
	}
	t := ix.gaps()
	need := ix.need[:0]
	for _, s := range sizes {
		need = append(need, s-2*Eps)
	}
	ix.need = need
	if ix.dim == 1 && need[0] > math.Inf(-1) {
		i := t.descend(need[0], side)
		if i < 0 {
			return nil
		}
		if b := ix.bins[i]; b.FitsDemand(sizes) {
			return b
		}
	}
	var hit *Bin
	stack := append(ix.stack[:0], 1)
	for len(stack) > 0 && hit == nil {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !t.mayFit(p, need) {
			continue
		}
		if p >= t.size {
			// A closed slot's -Inf leaf fails mayFit for every demand but
			// a NaN or -Inf one, which no comparison prunes.
			if i := p - t.size; i < t.n && ix.bins[i] != nil && ix.bins[i].FitsDemand(sizes) {
				hit = ix.bins[i]
			}
			continue
		}
		// Push the child on the preferred side last, so it pops first.
		stack = append(stack, 2*p+1-side, 2*p+side)
	}
	ix.stack = stack[:0]
	return hit
}

// MaxMinGapFitting returns the fitting bin with the largest MinGap —
// the emptiest dominant resource — ties toward the earliest opened, or
// nil if no open bin fits (the Worst Fit query at d = 1, where MinGap is
// the gap, and the dominant-resource Worst Fit query at every d).
func (ix *Index) MaxMinGapFitting(sizes []float64) *Bin { return ix.emptiest(sizes, 0) }

// SecondEmptiestFitting returns the runner-up of MaxMinGapFitting's order
// — the second fitting bin under (descending MinGap, ascending index) —
// or nil when fewer than two bins fit (the Almost Worst Fit query at
// d = 1).
func (ix *Index) SecondEmptiestFitting(sizes []float64) *Bin { return ix.emptiest(sizes, 1) }

// emptiest returns the fitting bin of the given rank (0 the first) under
// (descending MinGap, ascending index). It walks (MinGap, index) groups
// downward from the emptiest, verifying each candidate with the exact
// FitsDemand test, and stops once a group's MinGap cannot accommodate
// even the demand's smallest component (below that, no bin can fit: the
// dimension attaining MinGap would already overflow). A demand of the
// wrong dimension fits no bin, so it walks nothing and builds nothing.
func (ix *Index) emptiest(sizes []float64, rank int) *Bin {
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
	for m, ok := t.max(); ok; m, ok = t.floorBelow(t.at(m).key) {
		g := t.at(m).key
		if g < minNeed {
			return nil
		}
		for p, end := t.ceil(g, math.MinInt), t.next(m); p != end; p = t.next(p) {
			if b := t.at(p).bin; b.FitsDemand(sizes) {
				if rank == 0 {
					return b
				}
				rank--
			}
		}
	}
	return nil
}

// TightestFittingVec returns the fitting bin with the smallest TotalGap,
// ties toward the earliest opened, or nil (the vector Best Fit query). It
// walks the (TotalGap, index) list upward from the demand's total less
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
	for k, t := range ix.lists() {
		if t == nil {
			continue
		}
		if err := t.check(ix.bins, ix.live); err != nil {
			return fmt.Errorf("%s list: %v", [2]string{"min-gap", "total-gap"}[k], err)
		}
	}
	return nil
}
