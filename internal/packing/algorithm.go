// Package packing implements online algorithms for the MinUsageTime
// Dynamic Bin Packing problem and the event-driven simulator that runs
// them over an item list (Tang, Li, Ren, Cai: "On First Fit Bin Packing
// for Online Cloud Server Allocation", IPDPS 2016).
//
// The online model: when an item arrives, the algorithm sees only the
// item's size and the current state of the open bins — never the item's
// departure time (unknown at arrival) and never future arrivals. The
// Algorithm interface enforces the first restriction structurally by
// passing an Arrival view that carries no times. Placements are
// irrevocable: items are never migrated between bins.
package packing

import (
	"math"

	"dbp/internal/bins"
	"dbp/internal/item"
)

// Arrival is the online-visible view of an arriving item: its identity and
// resource demand, but not its departure time. Departure is NaN in the
// online model; it is populated only when the simulator runs with
// Options.Clairvoyant, which is NOT the paper's setting — clairvoyant
// policies exist as baselines quantifying the value of knowing departures
// (the paper contrasts with interval scheduling, where ending times are
// known; Sec. II).
type Arrival struct {
	ID    item.ID
	Size  float64
	Sizes []float64 // nil for 1-D items
	// At is the arrival time — the current wall clock, which every
	// online policy legitimately knows.
	At float64
	// Departure is NaN unless the run is clairvoyant.
	Departure float64
}

// view converts a full item to its online-visible arrival view at time t.
func view(it item.Item, t float64) Arrival {
	return Arrival{ID: it.ID, Size: it.Size, Sizes: it.Sizes, At: t, Departure: math.NaN()}
}

// sizeVec returns the demand vector of the arrival ({Size} for 1-D).
func (a Arrival) sizeVec() []float64 {
	if len(a.Sizes) == 0 {
		return []float64{a.Size}
	}
	return a.Sizes
}

// need is the gap threshold the arrival's scalar demand requires of a
// bin: size minus the capacity tolerance, so a bin with gap >= need
// accommodates the item under the same epsilon as Bin.Fits.
func (a Arrival) need() float64 { return a.Size - bins.Eps }

// Fleet is a policy's read-only view of the open bins: the raw opening-
// order slice plus the Any Fit queries every classical policy is built
// from. The indexed engine answers each query in O(log B) from the
// ledger-maintained bins.Index; the linear reference engine answers them
// with O(B) scans of identical, exact (gap, index)-lexicographic
// semantics — the cross-engine equivalence suite holds the two to
// bit-identical packings.
//
// The scalar queries take a pre-folded gap threshold (need = size - Eps)
// and are exact for 1-D demands. The vector queries take the RAW demand
// vector — tolerance is applied internally via the per-dimension
// bins.Bin.FitsDemand admission test, the same comparison on both
// backends — and serve d-dimensional (DVBP) placements: the first and
// last fitting bin for First/Last Fit rules, the least-total-gap
// selection for vector Best Fit, and the dominant-resource (max-min-gap)
// selection for Worst Fit rules. On the indexed backend they are
// answered by pruned descent of the per-dimension max-gap tree and by
// walks of the (TotalGap, index) and (MinGap, index) treaps
// (bins.Index); the linear backend scans. A rule no query answers — the
// first-dimension scoring of Best/Worst/Almost Worst Fit on vectors,
// DotProductFit, NormBestFit — scans Open() on both backends.
type Fleet interface {
	// Open returns the currently open bins in opening order (ascending
	// index). The slice is shared; callers must not modify or retain it.
	Open() []*bins.Bin
	// FirstFitting returns the earliest-opened bin with gap >= need.
	FirstFitting(need float64) *bins.Bin
	// LastFitting returns the latest-opened bin with gap >= need.
	LastFitting(need float64) *bins.Bin
	// TightestFitting returns the bin with the smallest gap >= need,
	// ties toward the earliest opened.
	TightestFitting(need float64) *bins.Bin
	// EmptiestFitting returns the bin with the largest gap, ties toward
	// the earliest opened, or nil if that gap is below need.
	EmptiestFitting(need float64) *bins.Bin
	// SecondEmptiestFitting returns the runner-up of EmptiestFitting
	// under the (descending gap, ascending index) order, restricted to
	// gaps >= need.
	SecondEmptiestFitting(need float64) *bins.Bin
	// FirstFittingVec returns the earliest-opened bin that fits the
	// demand vector in every dimension, or nil.
	FirstFittingVec(sizes []float64) *bins.Bin
	// LastFittingVec returns the latest-opened such bin, or nil.
	LastFittingVec(sizes []float64) *bins.Bin
	// TightestFittingVec returns the fitting bin with the smallest total
	// gap (bins.Bin.TotalGap), ties toward the earliest opened, or nil.
	TightestFittingVec(sizes []float64) *bins.Bin
	// MaxMinGapFitting returns the fitting bin whose dominant (most
	// loaded) resource has the most remaining capacity — the bin
	// maximizing min over dimensions of gap — ties toward the earliest
	// opened, or nil.
	MaxMinGapFitting(sizes []float64) *bins.Bin
}

// Algorithm is an online bin packing policy.
//
// Place returns the open bin that should receive the arrival — located
// through the Fleet's indexed queries or its Open() slice — or nil to
// open a new bin. Returning a bin that cannot accommodate the arrival is
// a policy bug and makes the engine fail the run (ErrPolicyMisplace).
// Implementations may retain references to individual bins across calls
// (e.g. Next Fit's available bin) and must tolerate those bins having
// closed.
//
// BinOpened reports the bin the engine opened after Place returned nil,
// so bounded-state policies can track it (Next Fit's available bin,
// Hybrid's class tag). Stateless policies implement it as a no-op.
//
// Reset restores the algorithm's initial state so one value can be reused
// across runs.
type Algorithm interface {
	Name() string
	Place(a Arrival, f Fleet) *bins.Bin
	BinOpened(b *bins.Bin)
	Reset()
}

// fits reports whether the arrival fits in the bin under the bin's
// capacity with tolerance, in every dimension.
func fits(b *bins.Bin, a Arrival) bool {
	return b.FitsDemand(a.sizeVec())
}
