package packing

import (
	"fmt"
	"math"

	"dbp/internal/bins"
)

// Clairvoyant baselines: policies that see each item's departure time at
// placement (run with Options.Clairvoyant). They are NOT online
// algorithms in the paper's model; they quantify how much of the online
// penalty comes from not knowing departures — the gap the paper draws to
// interval scheduling (Sec. II), where ending times are known yet
// minimizing busy time is still hard. Their decisions depend on per-bin
// departure horizons, which the shared index does not track, so they
// scan the open list (the linear path).

// AlignFit places each item into the fitting bin whose closing horizon
// (latest departure among resident items) is closest to the item's own
// departure — aligning departures so bins close promptly instead of
// being kept alive by one straggler. Preference order: the bin with the
// minimum |horizon - departure|, ties toward the earlier bin.
type AlignFit struct{}

// NewAlignFit returns an AlignFit policy (requires a clairvoyant run).
func NewAlignFit() *AlignFit { return &AlignFit{} }

// Name implements Algorithm.
func (*AlignFit) Name() string { return "AlignFit(clairvoyant)" }

// Place implements Algorithm; it panics if the run is not clairvoyant
// (misconfiguration, not data).
func (*AlignFit) Place(a Arrival, f Fleet) *bins.Bin {
	if math.IsNaN(a.Departure) {
		panic(fmt.Sprintf("packing: AlignFit requires Options.Clairvoyant (item %d)", a.ID))
	}
	var best *bins.Bin
	bestDiff := math.Inf(1)
	for _, b := range f.Open() {
		if !b.FitsDemand(a.Sizes) {
			continue
		}
		diff := math.Abs(horizon(b) - a.Departure)
		if diff < bestDiff-bins.Eps {
			best, bestDiff = b, diff
		}
	}
	return best
}

// BinOpened implements Algorithm; AlignFit tracks no bin state.
func (*AlignFit) BinOpened(*bins.Bin) {}

// Reset implements Algorithm; AlignFit is stateless.
func (*AlignFit) Reset() {}

// NoExtendFit is a stricter clairvoyant rule: it only joins a bin if the
// item would NOT extend the bin's closing horizon (departure <= current
// horizon), preferring the fullest such bin; if no bin can absorb the
// item for free, it prefers First Fit among the rest. Joining a bin
// without extending its horizon adds zero usage time, so every such
// placement is individually optimal.
type NoExtendFit struct{}

// NewNoExtendFit returns a NoExtendFit policy (requires a clairvoyant
// run).
func NewNoExtendFit() *NoExtendFit { return &NoExtendFit{} }

// Name implements Algorithm.
func (*NoExtendFit) Name() string { return "NoExtendFit(clairvoyant)" }

// Place implements Algorithm.
func (*NoExtendFit) Place(a Arrival, f Fleet) *bins.Bin {
	if math.IsNaN(a.Departure) {
		panic(fmt.Sprintf("packing: NoExtendFit requires Options.Clairvoyant (item %d)", a.ID))
	}
	open := f.Open()
	// Pass 1: fullest bin the item fits without extending its horizon.
	var free *bins.Bin
	for _, b := range open {
		if !b.FitsDemand(a.Sizes) || a.Departure > horizon(b) {
			continue
		}
		if free == nil || b.Level() > free.Level()+bins.Eps {
			free = b
		}
	}
	if free != nil {
		return free
	}
	// Pass 2: First Fit among the rest.
	for _, b := range open {
		if b.FitsDemand(a.Sizes) {
			return b
		}
	}
	return nil
}

// BinOpened implements Algorithm; NoExtendFit tracks no bin state.
func (*NoExtendFit) BinOpened(*bins.Bin) {}

// Reset implements Algorithm; NoExtendFit is stateless.
func (*NoExtendFit) Reset() {}

// horizon returns the latest departure among a bin's resident items.
// In a clairvoyant run the true departures are available in bin state.
func horizon(b *bins.Bin) float64 {
	h := math.Inf(-1)
	for _, it := range b.ActiveItems() {
		if it.Departure > h {
			h = it.Departure
		}
	}
	return h
}
