package packing

import (
	"fmt"

	"dbp/internal/bins"
)

// NextKFit generalizes Next Fit to k simultaneously available bins (the
// classical bounded-space "Next-k Fit"): an arriving item is placed in
// the first available bin that fits (lowest index among the available
// set); if none fits, the oldest available bin is retired forever and a
// new bin is opened. NextKFit(1) behaves exactly like Next Fit; larger k
// interpolates toward First Fit's behaviour while keeping bounded state —
// useful for charting how much of Next Fit's 2*mu penalty (Sec. VIII) is
// due to its single-bin memory. Like Next Fit, it inspects only its own
// O(k) retained bins, never the full fleet.
type NextKFit struct {
	k         int
	available []*bins.Bin // FIFO by opening, oldest first
}

// NewNextKFit returns a Next-k Fit policy with k >= 1 available bins.
func NewNextKFit(k int) *NextKFit {
	if k < 1 {
		panic("packing: NextKFit needs k >= 1")
	}
	return &NextKFit{k: k}
}

// Name implements Algorithm.
func (nk *NextKFit) Name() string { return fmt.Sprintf("NextKFit(k=%d)", nk.k) }

// Place puts the arrival in the lowest-indexed available bin that fits;
// otherwise it retires the oldest available bin and requests a new one.
func (nk *NextKFit) Place(a Arrival, f Fleet) *bins.Bin {
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
func (nk *NextKFit) BinOpened(b *bins.Bin) { nk.available = append(nk.available, b) }

// Reset implements Algorithm.
func (nk *NextKFit) Reset() { nk.available = nil }

// SaveState implements StatefulAlgorithm: the FIFO of still-open
// available bins by index. Closed bins are dropped, exactly as Place's
// own liveness sweep would drop them on the next arrival.
func (nk *NextKFit) SaveState() PolicyState {
	st := PolicyState{}
	for _, b := range nk.available {
		if b.IsOpen() {
			st.Bins = append(st.Bins, b.Index)
		}
	}
	return st
}

// RestoreState implements StatefulAlgorithm.
func (nk *NextKFit) RestoreState(st PolicyState, bin func(int) *bins.Bin) error {
	if len(st.Bins) > nk.k {
		return fmt.Errorf("NextKFit(k=%d) state lists %d available servers", nk.k, len(st.Bins))
	}
	nk.available = nil
	for _, i := range st.Bins {
		b := bin(i)
		if b == nil {
			return fmt.Errorf("NextKFit state names unknown open server %d", i)
		}
		nk.available = append(nk.available, b)
	}
	return nil
}

// AlmostWorstFit places each item into the second-emptiest fitting bin
// (falling back to the emptiest when only one fits) — the classical
// Almost Worst Fit rule, a standard Any Fit baseline whose behaviour
// sits between Worst Fit and Best Fit. "Second-emptiest" is the runner-
// up under the exact (descending gap, ascending index) order.
type AlmostWorstFit struct{}

// NewAlmostWorstFit returns an Almost Worst Fit policy.
func NewAlmostWorstFit() *AlmostWorstFit { return &AlmostWorstFit{} }

// Name implements Algorithm.
func (*AlmostWorstFit) Name() string { return "AlmostWorstFit" }

// Place returns the second-emptiest fitting bin (ties toward lower
// index), or the emptiest if only one fits, or nil if none fits.
func (*AlmostWorstFit) Place(a Arrival, f Fleet) *bins.Bin {
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

// BinOpened implements Algorithm; Almost Worst Fit tracks no bin state.
func (*AlmostWorstFit) BinOpened(*bins.Bin) {}

// Reset implements Algorithm; Almost Worst Fit is stateless.
func (*AlmostWorstFit) Reset() {}
