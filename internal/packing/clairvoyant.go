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

// Place implements Algorithm; it panics if the run is not clairvoyant
// (misconfiguration, not data).
func (*alignFit) Place(a Arrival, f Fleet) *bins.Bin {
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
