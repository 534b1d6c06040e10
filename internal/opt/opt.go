// Package opt computes the offline optimum of the MinUsageTime DBP
// problem: OPT_total(R) = ∫ OPT(R, t) dt over the packing period, where
// OPT(R, t) is the minimum number of bins into which the items active at
// time t can be repacked (paper Sec. III-C). Because the active item set
// is piecewise-constant between arrival/departure events, the integral is
// a finite sum of (classical bin packing optimum) × (segment length).
//
// Total is the one sweep: it brackets every segment with the package's
// classical bin packing solver (binpack.go, exact.go), exactly where the
// segment is small enough and the search completes, and with certified
// L2 / incumbent bounds elsewhere.
// TotalExact is its reading with no size limit; TotalVec brackets vector
// instances from per-dimension loads.
//
// The package also exposes the paper's two easy lower bounds:
// Proposition 1 (total time–space demand, per dimension at d >= 2) and
// Proposition 2 (span).
package opt

import (
	"math"

	"dbp/internal/item"
)

// Bounds is a certified bracket on OPT_total: Lower <= OPT_total <= Upper.
// Exact reports whether Lower == Upper was established by exact packing at
// every segment.
type Bounds struct {
	Lower float64
	Upper float64
	Exact bool
}

// Mid returns the midpoint of the bracket, a convenient point estimate.
func (b Bounds) Mid() float64 { return (b.Lower + b.Upper) / 2 }

// Width returns Upper - Lower.
func (b Bounds) Width() float64 { return b.Upper - b.Lower }

// DemandLowerBound is Proposition 1: OPT_total(R) >= sum of s(r)*|I(r)|
// (no bin capacity is ever wasted in the best case; unit capacity). At
// d >= 2 it is the per-dimension form max_k sum of s_k(r)*|I(r)|: a
// server holds at most one unit of every dimension at once, so each
// dimension's demand alone bounds OPT. (The sum of the largest
// components does not: (0.9, 0.1) and (0.1, 0.9) together for 2 time
// units share one server, an OPT of 2 against 3.6.) At d = 1 it is the
// sum of Size*Duration in list order.
func DemandLowerBound(l item.List) float64 {
	d := 1
	for _, it := range l {
		d = max(d, it.Dim())
	}
	var best float64
	for k := 0; k < d; k++ {
		var sum float64
		for _, it := range l {
			if v := it.SizeVec(); k < len(v) {
				sum += v[k] * it.Duration()
			}
		}
		best = math.Max(best, sum)
	}
	return best
}

// SpanLowerBound is Proposition 2: OPT_total(R) >= span(R) (at least one
// bin is in use whenever some item is active).
func SpanLowerBound(l item.List) float64 { return l.Span() }

// segments calls visit with each segment of the list's timeline on which
// some item is active: its length and the active items' sizes, in list
// order. sizes is reused from segment to segment.
func segments(l item.List, visit func(length float64, sizes []float64)) {
	var sizes []float64
	l.Segments(func(lo, hi float64, active []int) {
		sizes = sizes[:0]
		for _, i := range active {
			sizes = append(sizes, l[i].Size)
		}
		visit(hi-lo, sizes)
	})
}

// ExactLimit is the largest active set Total's callers solve exactly:
// the public API, analysis.Measure, dbpverify and the experiments.
const ExactLimit = 64

// Total computes a certified bracket on OPT_total, sweeping the timeline
// once and bracketing each segment as the sweep yields it, so memory
// stays O(active). A segment of at most exactLimit active items is
// solved by branch and bound with nodeLimit nodes; when the search
// completes the segment contributes its optimum to both
// sides, and when the budget runs out it contributes L2 below and the
// search's incumbent (never worse than FFD or BFD) above. A larger
// segment contributes L2 and the best of FFD/BFD.
func Total(l item.List, exactLimit int) Bounds {
	b := Bounds{Exact: true}
	segments(l, func(length float64, sizes []float64) {
		b.add(bracket(length, sizes, exactLimit))
	})
	return b
}

// TotalExact computes OPT_total(R) by solving every segment of the
// timeline exactly. If any segment's search is cut off, ok is false and
// the returned value is an upper estimate.
func TotalExact(l item.List) (total float64, ok bool) {
	b := Total(l, math.MaxInt)
	return b.Upper, b.Exact
}

// bracket is one segment's certified contribution to the OPT_total
// bracket, as Total describes.
func bracket(length float64, sizes []float64, exactLimit int) Bounds {
	if len(sizes) <= exactLimit {
		n, complete := exactBinsLimit(sizes, 1, nodeLimit)
		v := float64(n) * length
		if complete {
			return Bounds{Lower: v, Upper: v, Exact: true}
		}
		return Bounds{Lower: float64(lowerL2(sizes, 1)) * length, Upper: v}
	}
	lo := lowerL2(sizes, 1)
	hi := firstFitDecreasing(sizes, 1)
	if bfd := bestFitDecreasing(sizes, 1); bfd < hi {
		hi = bfd
	}
	return Bounds{Lower: float64(lo) * length, Upper: float64(hi) * length}
}

// add folds one segment's bracket into a running total.
func (b *Bounds) add(seg Bounds) {
	b.Lower += seg.Lower
	b.Upper += seg.Upper
	b.Exact = b.Exact && seg.Exact
}

// MaxConcurrentOpt returns max_t OPT(R, t), the classical DBP offline
// optimum with repacking — the denominator of the standard DBP
// competitive ratio the paper contrasts with (Sec. II).
func MaxConcurrentOpt(l item.List) int {
	best := 0
	segments(l, func(_ float64, sizes []float64) {
		if n := exactBins(sizes, 1); n > best {
			best = n
		}
	})
	return best
}

// TotalVec computes a certified bracket on OPT_total for vector (multi-
// dimensional) instances: per segment, the per-dimension continuous load
// as lower bound and vector First Fit, packing the active items in list
// order, as upper bound. Exact vector packing is out of scope (the paper
// leaves multi-dimensional MinUsageTime DBP as future work; experiment
// E10 only needs brackets).
func TotalVec(l item.List) Bounds {
	b := Bounds{}
	var sizes [][]float64
	l.Segments(func(lo, hi float64, active []int) {
		sizes = sizes[:0]
		for _, i := range active {
			sizes = append(sizes, l[i].SizeVec())
		}
		length := hi - lo
		low := lowerL1Vec(sizes, 1)
		if low == 0 {
			low = 1
		}
		b.Lower += float64(low) * length
		b.Upper += float64(firstFitVec(sizes, 1)) * length
	})
	b.Exact = b.Upper-b.Lower < 1e-12
	return b
}
