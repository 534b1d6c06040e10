package packing

import (
	"fmt"

	"dbp/internal/bins"
)

// nextKFit generalizes Next Fit to k simultaneously available bins (the
// classical bounded-space "Next-k Fit"): an arriving item is placed in
// the first available bin that fits (lowest index among the available
// set); if none fits, the oldest available bin is retired forever and a
// new bin is opened. Larger k interpolates toward First Fit's behaviour
// while keeping bounded state — useful for charting how much of Next
// Fit's 2*mu penalty (Sec. VIII) is due to its single-bin memory. It
// inspects only its own O(k) retained bins, never the full fleet.
//
// At k = 1 it is Next Fit as defined in Sec. VIII of the paper: exactly
// one bin is "available" for receiving new items at any time. If an
// incoming item does not fit in the available bin, that bin is marked
// unavailable forever and a new bin is opened (and becomes available).
// Unavailable bins close when their items depart but never receive
// further items. Kamali & López-Ortiz proved Next Fit is at most
// (2mu+1)-competitive; the paper's Sec. VIII construction shows it is at
// least 2mu-competitive, so the multiplicative factor 2 for mu is
// inherent — whereas First Fit achieves factor 1 (Theorem 1). Experiment
// E2 reproduces the construction.
type nextKFit struct {
	name      string
	k         int
	available []*bins.Bin // FIFO by opening, oldest first
}

// NewNextFit returns Next Fit: Next-k Fit at k = 1, named NextFit.
func NewNextFit() Algorithm { return &nextKFit{name: "NextFit", k: 1} }

// NewNextKFit returns a Next-k Fit policy with k >= 1 available bins.
func NewNextKFit(k int) Algorithm {
	if k < 1 {
		panic("packing: NextKFit needs k >= 1")
	}
	return &nextKFit{name: fmt.Sprintf("NextKFit(k=%d)", k), k: k}
}

// Name implements Algorithm.
func (nk *nextKFit) Name() string { return nk.name }

// Place puts the arrival in the lowest-indexed available bin that fits;
// otherwise it retires the oldest available bin and requests a new one.
func (nk *nextKFit) Place(a Arrival, f Fleet) *bins.Bin {
	// Drop available bins that closed on their own.
	live := nk.available[:0]
	for _, b := range nk.available {
		if b.IsOpen() {
			live = append(live, b)
		}
	}
	nk.available = live
	for _, b := range nk.available {
		if b.FitsDemand(a.Sizes) {
			return b
		}
	}
	if len(nk.available) >= nk.k {
		// Retire the oldest to make room for the new bin.
		nk.available = append(nk.available[:0], nk.available[1:]...)
	}
	return nil
}

// BinOpened records the freshly opened bin as the newest available bin.
func (nk *nextKFit) BinOpened(b *bins.Bin) { nk.available = append(nk.available, b) }

// Reset implements resetter.
func (nk *nextKFit) Reset() { nk.available = nil }

// SaveState implements statefulAlgorithm: the FIFO of still-open
// available bins by index. Closed bins are dropped, exactly as Place's
// own liveness sweep would drop them on the next arrival.
func (nk *nextKFit) SaveState() PolicyState {
	st := PolicyState{}
	for _, b := range nk.available {
		if b.IsOpen() {
			st.Bins = append(st.Bins, b.Index)
		}
	}
	return st
}

// RestoreState implements statefulAlgorithm.
func (nk *nextKFit) RestoreState(st PolicyState, bin func(int) *bins.Bin) error {
	if len(st.Bins) > nk.k {
		return fmt.Errorf("%s state lists %d available servers, want at most %d", nk.name, len(st.Bins), nk.k)
	}
	nk.available = nil
	for _, i := range st.Bins {
		b := bin(i)
		if b == nil {
			return fmt.Errorf("%s state names unknown open server %d", nk.name, i)
		}
		nk.available = append(nk.available, b)
	}
	return nil
}

// almostWorstFit places each item into the second-emptiest fitting bin
// (falling back to the emptiest when only one fits) — the classical
// Almost Worst Fit rule, a standard Any Fit baseline whose behaviour
// sits between Worst Fit and Best Fit. "Second-emptiest" is the runner-
// up under the exact (descending gap, ascending index) order.
type almostWorstFit struct{}

// Name implements Algorithm.
func (*almostWorstFit) Name() string { return "AlmostWorstFit" }

// Place returns the second-emptiest fitting bin (ties toward lower
// index), or the emptiest if only one fits, or nil if none fits.
func (*almostWorstFit) Place(a Arrival, f Fleet) *bins.Bin {
	if len(a.Sizes) == 1 { // at d = 1 MinGap is the gap
		if second := f.SecondEmptiestFitting(a.Sizes); second != nil {
			return second
		}
		return f.MaxMinGapFitting(a.Sizes)
	}
	var first, second *bins.Bin // emptiest and second-emptiest fitting by gap
	for _, b := range f.Open() {
		switch {
		case !b.FitsDemand(a.Sizes):
		case first == nil:
			first = b
		case b.Gap() > first.Gap():
			second = first
			first = b
		case second == nil || b.Gap() > second.Gap():
			second = b
		}
	}
	if second != nil {
		return second
	}
	return first
}
