package packing

import (
	"fmt"

	"dbp/internal/bins"
)

// NextFit is the Next Fit packing algorithm as defined in Sec. VIII of the
// paper: exactly one bin is "available" for receiving new items at any
// time. If an incoming item does not fit in the available bin, that bin is
// marked unavailable forever and a new bin is opened (and becomes
// available). Unavailable bins close when their items depart but never
// receive further items.
//
// Kamali & López-Ortiz proved Next Fit is at most (2mu+1)-competitive; the
// paper's Sec. VIII construction shows it is at least 2mu-competitive, so
// the multiplicative factor 2 for mu is inherent — whereas First Fit
// achieves factor 1 (Theorem 1). Experiment E2 reproduces the
// construction.
//
// Next Fit inspects only its one retained bin — O(1) per event, no index
// queries at all.
type NextFit struct {
	available *bins.Bin
}

// NewNextFit returns a Next Fit policy.
func NewNextFit() *NextFit { return &NextFit{} }

// Name implements Algorithm.
func (*NextFit) Name() string { return "NextFit" }

// Place puts the arrival in the available bin if it fits; otherwise it
// requests a new bin (which the engine reports via BinOpened, making it
// the new available bin).
func (nf *NextFit) Place(a Arrival, f Fleet) *bins.Bin {
	if nf.available != nil && nf.available.IsOpen() && nf.available.FitsDemand(a.Sizes) {
		return nf.available
	}
	// Either no available bin, it closed on its own, or the item does not
	// fit: mark it unavailable (drop the reference) and open a new bin.
	nf.available = nil
	return nil
}

// BinOpened records the freshly opened bin as the available bin.
// The engine calls it whenever Place returned nil and a bin was opened.
func (nf *NextFit) BinOpened(b *bins.Bin) { nf.available = b }

// Reset implements Algorithm.
func (nf *NextFit) Reset() { nf.available = nil }

// SaveState implements StatefulAlgorithm: the available bin's index, or
// nothing. A closed available bin is saved as nothing — Place treats the
// two identically (first branch fails, bin goes unavailable forever).
func (nf *NextFit) SaveState() PolicyState {
	st := PolicyState{}
	if nf.available != nil && nf.available.IsOpen() {
		st.Bins = []int{nf.available.Index}
	}
	return st
}

// RestoreState implements StatefulAlgorithm.
func (nf *NextFit) RestoreState(st PolicyState, bin func(int) *bins.Bin) error {
	nf.available = nil
	switch len(st.Bins) {
	case 0:
		return nil
	case 1:
		b := bin(st.Bins[0])
		if b == nil {
			return fmt.Errorf("NextFit state names unknown open server %d", st.Bins[0])
		}
		nf.available = b
		return nil
	default:
		return fmt.Errorf("NextFit state lists %d available servers, want at most 1", len(st.Bins))
	}
}
