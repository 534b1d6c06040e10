// Package packing implements online algorithms for the MinUsageTime
// Dynamic Bin Packing problem and the event-driven simulator that runs
// them over an item list (Tang, Li, Ren, Cai: "On First Fit Bin Packing
// for Online Cloud Server Allocation", IPDPS 2016).
//
// The online model: when an item arrives, the algorithm sees only the
// item's size and the current state of the open bins — never the item's
// departure time (unknown at arrival) and never future arrivals. The
// Algorithm interface enforces the first restriction structurally by
// passing an Arrival view whose departure is NaN, unless the policy
// declares itself a departure-aware baseline. Placements are
// irrevocable: items are never migrated between bins.
//
// A policy is Name + Place (Algorithm). A policy with state of its own
// implements optional hooks, which the engine finds once, when it is
// built: BinOpened (Next-k Fit, both hybrids, Replay's follow), Reset
// (those and Random Fit) and SaveState/RestoreState (Next-k Fit, both
// hybrids, Random Fit), which carry the state through a Snapshot. A
// departure-aware baseline (Align Fit, Predictive Fit and No-Extend Fit)
// declares through the departureAware hook that it reads departures.
package packing

import (
	"dbp/internal/bins"
	"dbp/internal/item"
)

// Arrival is the online-visible view of an arriving item: its identity and
// resource demand, but not its departure time. Departure is NaN in the
// online model; Run and RunFleet fill it in only for a departure-aware
// policy (the departureAware hook), which is NOT the paper's setting —
// such policies exist as baselines quantifying the value of knowing
// departures (the paper contrasts with interval scheduling, where ending
// times are known; Sec. II).
type Arrival struct {
	ID   item.ID
	Size float64
	// Sizes is the demand vector, one component per fleet dimension: the
	// item's own Sizes, or for a scalar item a one-element slice the
	// engine owns and rewrites at the next arrival. Policies must not
	// modify or retain it.
	Sizes []float64
	// Capacity is the fleet's per-dimension server capacity, the unit
	// that makes a size a fraction of a server (1 in the paper's
	// normalization).
	Capacity float64
	// At is the arrival time — the current wall clock, which every
	// online policy legitimately knows.
	At float64
	// Departure is NaN unless the policy is departure-aware.
	Departure float64
}

// Fleet is a policy's read-only view of the open bins: the raw opening-
// order slice plus the Any Fit queries the classical policies are built
// from. Every query takes the raw demand vector — a scalar job is the
// d = 1 case — and admits a bin by the per-dimension bins.Bin.FitsDemand
// test, the same comparison on both backends and in the engine's own
// misplacement check. The indexed engine answers each query from the
// ledger-maintained bins.Index (a gap tree and two level lists); the linear
// reference engine answers it with an O(B) scan of identical, exact
// semantics — the cross-engine equivalence suite holds the two to
// bit-identical packings. A rule no query answers — the first-dimension
// scoring of Best/Worst/Almost Worst Fit at d >= 2, DotProductFit,
// NormBestFit — scans Open() on both backends.
type Fleet interface {
	// Open returns the currently open bins in opening order (ascending
	// index). The slice is shared; callers must not modify or retain it.
	Open() []*bins.Bin
	// FirstFittingVec returns the earliest-opened bin that fits the
	// demand vector in every dimension, or nil.
	FirstFittingVec(sizes []float64) *bins.Bin
	// LastFittingVec returns the latest-opened such bin, or nil.
	LastFittingVec(sizes []float64) *bins.Bin
	// TightestFittingVec returns the fitting bin with the smallest total
	// gap (bins.Bin.TotalGap, the gap at d = 1), ties toward the earliest
	// opened, or nil.
	TightestFittingVec(sizes []float64) *bins.Bin
	// MaxMinGapFitting returns the fitting bin whose dominant (most
	// loaded) resource has the most remaining capacity — the bin
	// maximizing min over dimensions of gap, the gap at d = 1 — ties
	// toward the earliest opened, or nil.
	MaxMinGapFitting(sizes []float64) *bins.Bin
	// SecondEmptiestFitting returns the runner-up of MaxMinGapFitting's
	// (descending min gap, ascending index) order among the fitting
	// bins, or nil when fewer than two fit.
	SecondEmptiestFitting(sizes []float64) *bins.Bin
}

// Algorithm is an online bin packing policy: the one decision the paper
// defines a policy by (Secs. II–III). Place returns the open bin that
// should receive the arrival — located through the Fleet's indexed
// queries or its Open() slice — or nil to open a new bin. Returning a bin
// that cannot accommodate the arrival is a policy bug and makes the
// engine fail the run (ErrPolicyMisplace). Implementations may retain
// references to individual bins across calls (e.g. Next Fit's available
// bin) and must tolerate those bins having closed. A policy with state
// of its own adds the optional hooks binOpener, resetter and
// statefulAlgorithm, and a departure-aware one departureAware (see the
// package doc).
type Algorithm interface {
	Name() string
	Place(a Arrival, f Fleet) *bins.Bin
}

// binOpener is a policy that tracks the bins it had opened: the engine
// reports the bin it opens after Place returned nil, and at no other
// time.
type binOpener interface {
	BinOpened(b *bins.Bin)
}

// resetter is a policy with run state: the engine resets it when it is
// built, so one value can drive several runs and streams.
type resetter interface {
	Reset()
}

// departureAware is a policy that reads Arrival.Departure: a baseline
// outside the paper's online model. The batch front ends reveal each
// item's departure to such a policy and to no other; a stream, which
// learns a departure only when it happens, refuses it.
type departureAware interface {
	departureAware()
}
