package packing

import (
	"fmt"

	"dbp/internal/bins"
)

// classify returns the size class of an arrival under harmonic-style
// boundaries with k classes: class i (0-based, i < k-1) holds sizes in
// (1/(i+2), 1/(i+1)], and the last class holds all remaining small sizes
// in (0, 1/k]. With k = 2 this is the large/small split at 1/2 used by the
// paper's analysis (Sec. V classifies items at size 1/2).
func classify(size float64, k int) int {
	for i := 0; i < k-1; i++ {
		if size > 1.0/float64(i+2) {
			return i
		}
	}
	return k - 1
}

// HybridFirstFit is the size-classifying First Fit family from the
// authors' earlier work (Li, Tang, Cai, SPAA'14 / TPDS'16), cited by the
// paper for its 8/7*mu + O(1) competitive ratio. Items are partitioned
// into k size classes with harmonic boundaries (k=2: large > 1/2 vs small
// <= 1/2); each class is packed by First Fit into its own pool of bins, so
// bins never mix classes. Classifying by size bounds the wasted capacity
// of each bin: a bin of class i (holding sizes in (1/(i+2), 1/(i+1)])
// reaches level > (i+1)/(i+2) whenever it refuses an item of its class.
//
// The per-class membership is policy state the shared index knows nothing
// about, so Place scans the open list — the linear path — filtering by
// class.
//
// The variant is semi-online in the same sense as the paper's Sec. II
// remark: choosing k to optimize the bound requires knowing mu a priori.
// This implementation documents itself as the classification scheme; the
// exact constant of [5]'s analysis is not claimed.
type HybridFirstFit struct {
	k     int
	class map[*bins.Bin]int
	// pending remembers the class of the arrival for which Place returned
	// nil, so BinOpened can tag the new bin.
	pending int
}

// NewHybridFirstFit returns a Hybrid First Fit policy with k >= 2 size
// classes. k = 2 reproduces the large/small split at 1/2.
func NewHybridFirstFit(k int) *HybridFirstFit {
	if k < 2 {
		panic("packing: HybridFirstFit needs k >= 2 classes")
	}
	return &HybridFirstFit{k: k, class: make(map[*bins.Bin]int), pending: -1}
}

// Name implements Algorithm.
func (h *HybridFirstFit) Name() string { return fmt.Sprintf("HybridFirstFit(k=%d)", h.k) }

// Place applies First Fit within the arrival's size class. It first drops
// the tags of closed bins once they outnumber the open list, so the map —
// the one reference a stream's policy would otherwise keep to every server
// it ever opened — stays within twice the open fleet, at an amortised O(1)
// per closure.
func (h *HybridFirstFit) Place(a Arrival, f Fleet) *bins.Bin {
	c := classify(a.Size, h.k)
	open := f.Open()
	if len(h.class) > 2*len(open) {
		for b := range h.class {
			if !b.IsOpen() {
				delete(h.class, b)
			}
		}
	}
	for _, b := range open {
		if h.class[b] == c && b.FitsDemand(a.Sizes) {
			return b
		}
	}
	h.pending = c
	return nil
}

// BinOpened tags the freshly opened bin with the pending arrival's class.
func (h *HybridFirstFit) BinOpened(b *bins.Bin) {
	h.class[b] = h.pending
	h.pending = -1
}

// Reset implements Algorithm.
func (h *HybridFirstFit) Reset() {
	h.class = make(map[*bins.Bin]int)
	h.pending = -1
}

// SaveState implements StatefulAlgorithm: the class tag of every open
// tagged bin, by index. Closed bins' tags are dropped (Place only ever
// consults tags of bins on the open list), and pending is never saved —
// it is -1 between events by construction (BinOpened consumes it within
// the same arrival that set it).
func (h *HybridFirstFit) SaveState() PolicyState {
	st := PolicyState{}
	for b, c := range h.class {
		if b.IsOpen() {
			if st.Class == nil {
				st.Class = make(map[int]int)
			}
			st.Class[b.Index] = c
		}
	}
	return st
}

// RestoreState implements StatefulAlgorithm.
func (h *HybridFirstFit) RestoreState(st PolicyState, bin func(int) *bins.Bin) error {
	h.class = make(map[*bins.Bin]int, len(st.Class))
	h.pending = -1
	for i, c := range st.Class {
		if c < 0 || c >= h.k {
			return fmt.Errorf("HybridFirstFit(k=%d) state tags server %d with class %d", h.k, i, c)
		}
		b := bin(i)
		if b == nil {
			return fmt.Errorf("HybridFirstFit state names unknown open server %d", i)
		}
		h.class[b] = c
	}
	return nil
}

// HybridNextFit applies Next Fit within each of k harmonic size classes —
// the classify-then-Next-Fit scheme Kamali & López-Ortiz analyze (cited in
// Sec. II of the paper as achieving 2mu + O(1) semi-online). One bin per
// class is available at any time.
type HybridNextFit struct {
	k         int
	available []*bins.Bin
	pending   int
}

// NewHybridNextFit returns a Hybrid Next Fit policy with k >= 2 classes.
func NewHybridNextFit(k int) *HybridNextFit {
	if k < 2 {
		panic("packing: HybridNextFit needs k >= 2 classes")
	}
	return &HybridNextFit{k: k, available: make([]*bins.Bin, k), pending: -1}
}

// Name implements Algorithm.
func (h *HybridNextFit) Name() string { return fmt.Sprintf("HybridNextFit(k=%d)", h.k) }

// Place puts the arrival in its class's available bin if possible.
func (h *HybridNextFit) Place(a Arrival, f Fleet) *bins.Bin {
	c := classify(a.Size, h.k)
	if b := h.available[c]; b != nil && b.IsOpen() && b.FitsDemand(a.Sizes) {
		return b
	}
	h.available[c] = nil
	h.pending = c
	return nil
}

// BinOpened records the new bin as its class's available bin.
func (h *HybridNextFit) BinOpened(b *bins.Bin) {
	h.available[h.pending] = b
	h.pending = -1
}

// Reset implements Algorithm.
func (h *HybridNextFit) Reset() {
	h.available = make([]*bins.Bin, h.k)
	h.pending = -1
}

// SaveState implements StatefulAlgorithm: one slot per class, the open
// available bin's index or -1. A closed slot is saved as -1, matching
// Place's own treatment of a closed available bin.
func (h *HybridNextFit) SaveState() PolicyState {
	st := PolicyState{Bins: make([]int, h.k)}
	for c, b := range h.available {
		st.Bins[c] = -1
		if b != nil && b.IsOpen() {
			st.Bins[c] = b.Index
		}
	}
	return st
}

// RestoreState implements StatefulAlgorithm.
func (h *HybridNextFit) RestoreState(st PolicyState, bin func(int) *bins.Bin) error {
	if len(st.Bins) != h.k {
		return fmt.Errorf("HybridNextFit(k=%d) state has %d class slots", h.k, len(st.Bins))
	}
	h.available = make([]*bins.Bin, h.k)
	h.pending = -1
	for c, i := range st.Bins {
		if i < 0 {
			continue
		}
		b := bin(i)
		if b == nil {
			return fmt.Errorf("HybridNextFit state names unknown open server %d", i)
		}
		h.available[c] = b
	}
	return nil
}
