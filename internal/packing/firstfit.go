package packing

import "dbp/internal/bins"

// FirstFit is the First Fit packing algorithm analyzed by the paper
// (Sec. III-B): each arriving item is placed in the open bin that was
// opened earliest (lowest index) among those that can accommodate it; if
// none can, a new bin is opened.
//
// Theorem 1 of the paper: First Fit is (mu+4)-competitive for MinUsageTime
// DBP, where mu is the max/min item duration ratio — the best known upper
// bound, within an additive constant of the lower bound mu that holds for
// every online algorithm.
type FirstFit struct{}

// NewFirstFit returns a First Fit policy.
func NewFirstFit() *FirstFit { return &FirstFit{} }

// Name implements Algorithm.
func (*FirstFit) Name() string { return "FirstFit" }

// Place returns the lowest-indexed open bin that fits, or nil.
func (*FirstFit) Place(a Arrival, f Fleet) *bins.Bin { return f.FirstFittingVec(a.Sizes) }

// BinOpened implements Algorithm; First Fit tracks no bin state.
func (*FirstFit) BinOpened(*bins.Bin) {}

// Reset implements Algorithm; First Fit is stateless.
func (*FirstFit) Reset() {}
