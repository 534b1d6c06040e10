package packing

import "dbp/internal/bins"

// bestFit places each item into the fitting open bin with the least
// remaining capacity (smallest gap), breaking ties toward the earliest
// opened bin. The paper notes (Sec. I) that for MinUsageTime DBP the
// competitive ratio of Best Fit is NOT bounded for any given mu — in sharp
// contrast to classical bin packing, where Best Fit is one of the good
// heuristics. Experiment E4 reproduces the unboundedness.
type bestFit struct{}

// NewBestFit returns a Best Fit policy.
func NewBestFit() Algorithm { return &bestFit{} }

// Name implements Algorithm.
func (*bestFit) Name() string { return "BestFit" }

// Place returns the fitting bin with minimal gap (ties: lowest index).
func (*bestFit) Place(a Arrival, f Fleet) *bins.Bin {
	if len(a.Sizes) == 1 {
		return f.TightestFittingVec(a.Sizes) // at d = 1 TotalGap is the gap
	}
	// Vector demand: scan the open list keeping the historical scalar
	// scoring — smallest first-dimension gap, ties toward the earliest
	// opened.
	var best *bins.Bin
	for _, b := range f.Open() {
		if b.FitsDemand(a.Sizes) && (best == nil || b.Gap() < best.Gap()) {
			best = b
		}
	}
	return best
}
