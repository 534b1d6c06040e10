package packing

import "dbp/internal/bins"

// LastFit places each item into the most recently opened bin that fits
// (highest index) — the mirror image of First Fit, included as an Any Fit
// baseline for the algorithm-comparison experiments. Intuition from the
// paper's analysis says this should be worse than First Fit: First Fit
// drains old bins' remaining life by always preferring them, while Last
// Fit keeps old, nearly-empty bins alive.
type LastFit struct{}

// NewLastFit returns a Last Fit policy.
func NewLastFit() *LastFit { return &LastFit{} }

// Name implements Algorithm.
func (*LastFit) Name() string { return "LastFit" }

// Place returns the highest-indexed open bin that fits, or nil.
func (*LastFit) Place(a Arrival, f Fleet) *bins.Bin { return f.LastFittingVec(a.Sizes) }

// BinOpened implements Algorithm; Last Fit tracks no bin state.
func (*LastFit) BinOpened(*bins.Bin) {}

// Reset implements Algorithm; Last Fit is stateless.
func (*LastFit) Reset() {}
