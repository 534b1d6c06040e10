package packing

import (
	"math"

	"dbp/internal/bins"
)

// Clairvoyant baselines: policies that see each item's departure time at
// placement (they declare it with the departureAware hook, and Run and
// RunFleet reveal it to them alone). They are NOT online
// algorithms in the paper's model; they quantify how much of the online
// penalty comes from not knowing departures — the gap the paper draws to
// interval scheduling (Sec. II), where ending times are known yet
// minimizing busy time is still hard. Their decisions depend on per-bin
// departure horizons, which the shared index does not track, so they
// scan the open list (the linear path). NoExtendFit, the other
// clairvoyant baseline, is PredictiveFit at sigma = 0 (predictive.go).

// alignFit places each item into the fitting bin whose closing horizon
// (latest departure among resident items) is closest to the item's own
// departure — aligning departures so bins close promptly instead of
// being kept alive by one straggler. Preference order: the bin with the
// minimum |horizon - departure|, ties toward the earlier bin.
type alignFit struct{}

// Name implements Algorithm.
func (*alignFit) Name() string { return "AlignFit(clairvoyant)" }

// departureAware implements departureAware.
func (*alignFit) departureAware() {}

// Place implements Algorithm.
func (*alignFit) Place(a Arrival, f Fleet) *bins.Bin {
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

// horizon returns the latest departure among a bin's resident items.
// A departure-aware policy's bins hold the true departures.
func horizon(b *bins.Bin) float64 {
	h := math.Inf(-1)
	for _, it := range b.ActiveItems() {
		if it.Departure > h {
			h = it.Departure
		}
	}
	return h
}
