package packing

import "dbp/internal/bins"

// WorstFit places each item into the fitting open bin with the most
// remaining capacity (largest gap), breaking ties toward the earliest
// opened bin. Like Best Fit and First Fit it is a member of the Any Fit
// family (it never opens a new bin while some open bin fits), so the
// paper's mu+1 Any-Fit lower bound applies to it (Experiment E3).
type WorstFit struct{}

// NewWorstFit returns a Worst Fit policy.
func NewWorstFit() *WorstFit { return &WorstFit{} }

// Name implements Algorithm.
func (*WorstFit) Name() string { return "WorstFit" }

// Place returns the fitting bin with maximal gap (ties: lowest index).
func (*WorstFit) Place(a Arrival, f Fleet) *bins.Bin {
	if len(a.Sizes) == 1 {
		return f.MaxMinGapFitting(a.Sizes) // at d = 1 MinGap is the gap
	}
	// Vector demand: same historical scalar scoring (largest
	// first-dimension gap) over a scan of the open list. For the
	// dominant-resource vector rule see DRWorstFit.
	var best *bins.Bin
	for _, b := range f.Open() {
		if b.FitsDemand(a.Sizes) && (best == nil || b.Gap() > best.Gap()) {
			best = b
		}
	}
	return best
}

// BinOpened implements Algorithm; Worst Fit tracks no bin state.
func (*WorstFit) BinOpened(*bins.Bin) {}

// Reset implements Algorithm; Worst Fit is stateless.
func (*WorstFit) Reset() {}
