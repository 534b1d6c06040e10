package packing

import "dbp/internal/bins"

// The DVBP (Dynamic Vector Bin Packing) policy family: placement
// heuristics whose scoring is genuinely d-dimensional, after Murhekar,
// Arbour, Sarpatwar & Schieber ("Dynamic Vector Bin Packing for Online
// Resource Allocation in the Cloud", SPAA 2023) and the heuristics
// evaluated for VM placement by Lee & Tang and by Panigrahy et al.
// ("Heuristics for Vector Bin Packing"). Each treats a job's demand as
// the vector of its per-resource requirements (CPU, memory, network,
// disk, ...) and a server's state as its per-resource remaining
// capacities (gaps); scalar jobs degenerate to the corresponding 1-D
// classical rule.
//
// All four are stateless Any Fit policies — they never open a new server
// while some open server fits — and engine-agnostic. VectorBestFit and
// DRWorstFit place through the Fleet's vector queries, which the linear
// engine answers with reference scans and the indexed engine from the
// d-dimensional bins.Index: VectorBestFit walks the (TotalGap, index)
// treap, DRWorstFit the (MinGap, index) treap. DotProductFit and
// NormBestFit score every fitting server in a scan of Open(), the same
// on both engines. Ties always break toward the earliest-opened server,
// the same lexicographic rule as the scalar policies, so cross-engine
// packings are bit-identical.

// VectorBestFit is Best Fit under the total-residual scalarization:
// among fitting servers it minimizes the SUM of per-dimension gaps (the
// L1 norm of the remaining-capacity vector, bins.Bin.TotalGap), ties
// toward the earliest opened. For scalar jobs the sum is the gap itself
// and the rule is classical Best Fit.
type VectorBestFit struct{}

// NewVectorBestFit returns a vector Best Fit policy.
func NewVectorBestFit() *VectorBestFit { return &VectorBestFit{} }

// Name implements Algorithm.
func (*VectorBestFit) Name() string { return "VectorBestFit" }

// Place returns the fitting server with minimal total gap.
func (*VectorBestFit) Place(a Arrival, f Fleet) *bins.Bin { return f.TightestFittingVec(a.Sizes) }

// BinOpened implements Algorithm; stateless.
func (*VectorBestFit) BinOpened(*bins.Bin) {}

// Reset implements Algorithm; stateless.
func (*VectorBestFit) Reset() {}

// DotProductFit is the dot-product heuristic of Panigrahy et al.: among
// fitting servers it maximizes the dot product of the demand vector and
// the server's remaining-capacity vector, ties toward the earliest
// opened — steering each job toward servers whose abundance profile
// aligns with the job's demand profile, so complementary jobs share
// servers. For scalar jobs it degenerates to Worst Fit (size * gap is
// maximal where gap is).
type DotProductFit struct{}

// NewDotProductFit returns a dot-product placement policy.
func NewDotProductFit() *DotProductFit { return &DotProductFit{} }

// Name implements Algorithm.
func (*DotProductFit) Name() string { return "DotProductFit" }

// Place returns the fitting server maximizing demand . gaps.
func (*DotProductFit) Place(a Arrival, f Fleet) *bins.Bin {
	var (
		best      *bins.Bin
		bestScore float64
	)
	for _, b := range f.Open() {
		if !b.FitsDemand(a.Sizes) {
			continue
		}
		score := 0.0
		for d, s := range a.Sizes {
			score += s * b.GapAt(d)
		}
		if best == nil || score > bestScore {
			best, bestScore = b, score
		}
	}
	return best
}

// BinOpened implements Algorithm; stateless.
func (*DotProductFit) BinOpened(*bins.Bin) {}

// Reset implements Algorithm; stateless.
func (*DotProductFit) Reset() {}

// NormBestFit is norm-based Best Fit (the "norm2" heuristic of the VM
// placement literature): among fitting servers it minimizes the squared
// L2 distance between the demand vector and the remaining-capacity
// vector — the residual capacity left stranded if the job were placed —
// ties toward the earliest opened. For scalar jobs it coincides with
// Best Fit (the closest gap at least the size is the smallest such gap).
type NormBestFit struct{}

// NewNormBestFit returns a norm-based Best Fit policy.
func NewNormBestFit() *NormBestFit { return &NormBestFit{} }

// Name implements Algorithm.
func (*NormBestFit) Name() string { return "NormBestFit" }

// Place returns the fitting server minimizing ||gaps - demand||^2.
func (*NormBestFit) Place(a Arrival, f Fleet) *bins.Bin {
	var (
		best      *bins.Bin
		bestScore float64
	)
	for _, b := range f.Open() {
		if !b.FitsDemand(a.Sizes) {
			continue
		}
		score := 0.0
		for d, s := range a.Sizes {
			r := b.GapAt(d) - s
			score += r * r
		}
		if best == nil || score < bestScore {
			best, bestScore = b, score
		}
	}
	return best
}

// BinOpened implements Algorithm; stateless.
func (*NormBestFit) BinOpened(*bins.Bin) {}

// Reset implements Algorithm; stateless.
func (*NormBestFit) Reset() {}

// DRWorstFit is dominant-resource Worst Fit: among fitting servers it
// maximizes the remaining capacity of the server's dominant (most
// loaded) resource — min over dimensions of gap — ties toward the
// earliest opened. This is the d-dimensional reading of Worst Fit's
// "emptiest server" rule (a server is as empty as its scarcest
// resource), the scalarization the dominant-resource treap in
// bins.Index answers in O(log B) per group. For scalar jobs MinGap is
// the gap and the rule is classical Worst Fit.
type DRWorstFit struct{}

// NewDRWorstFit returns a dominant-resource Worst Fit policy.
func NewDRWorstFit() *DRWorstFit { return &DRWorstFit{} }

// Name implements Algorithm.
func (*DRWorstFit) Name() string { return "DRWorstFit" }

// Place returns the fitting server with maximal min-dimension gap.
func (*DRWorstFit) Place(a Arrival, f Fleet) *bins.Bin {
	return f.MaxMinGapFitting(a.Sizes)
}

// BinOpened implements Algorithm; stateless.
func (*DRWorstFit) BinOpened(*bins.Bin) {}

// Reset implements Algorithm; stateless.
func (*DRWorstFit) Reset() {}
