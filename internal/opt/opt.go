// Package opt computes the offline optimum of the MinUsageTime DBP
// problem: OPT_total(R) = ∫ OPT(R, t) dt over the packing period, where
// OPT(R, t) is the minimum number of bins into which the items active at
// time t can be repacked (paper Sec. III-C). Because the active item set
// is piecewise-constant between arrival/departure events, the integral is
// a finite sum of (classical bin packing optimum) × (segment length) —
// computed exactly with the binpack solver, or bracketed with certified
// lower/upper bounds when the exact search would be too expensive.
//
// The package also exposes the paper's two easy lower bounds:
// Proposition 1 (total time–space demand) and Proposition 2 (span).
package opt

import (
	"math"

	"dbp/internal/binpack"
	"dbp/internal/item"
	"dbp/internal/parallel"
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
// (no bin capacity is ever wasted in the best case; unit capacity). It is
// a lower bound for scalar items only. At d >= 2 s(r) is the item's
// largest component, and items that peak in different dimensions can
// share a server, so the sum can exceed OPT: (0.9, 0.1) and (0.1, 0.9)
// together for 2 time units give 3.6 against an OPT of 2.
func DemandLowerBound(l item.List) float64 { return l.TotalDemand() }

// SpanLowerBound is Proposition 2: OPT_total(R) >= span(R) (at least one
// bin is in use whenever some item is active).
func SpanLowerBound(l item.List) float64 { return l.Span() }

// CombinedLowerBound is max(Prop 1, Prop 2), the denominator the paper's
// competitive analysis measures against when the true OPT is unknown.
func CombinedLowerBound(l item.List) float64 {
	return math.Max(DemandLowerBound(l), SpanLowerBound(l))
}

// segments walks the piecewise-constant active-set structure of the list:
// for each maximal interval [t0, t1) between consecutive event times, it
// yields the active items' sizes. Segments with no active items are
// skipped (OPT contributes zero there).
func segments(l item.List, visit func(length float64, sizes []float64)) {
	times := l.EventTimes()
	if len(times) < 2 {
		return
	}
	// Sweep with a size-change ledger rather than an O(n) scan per
	// segment: arrival adds, departure removes.
	type delta struct {
		t    float64
		size float64
		add  bool
	}
	deltas := make([]delta, 0, 2*len(l))
	for _, it := range l {
		deltas = append(deltas,
			delta{t: it.Arrival, size: it.Size, add: true},
			delta{t: it.Departure, size: it.Size, add: false})
	}
	// Bucket deltas by event index.
	index := make(map[float64]int, len(times))
	for i, t := range times {
		index[t] = i
	}
	adds := make([][]float64, len(times))
	rems := make([][]float64, len(times))
	for _, d := range deltas {
		i := index[d.t]
		if d.add {
			adds[i] = append(adds[i], d.size)
		} else {
			rems[i] = append(rems[i], d.size)
		}
	}
	// Multiset of active sizes, maintained as a slice (small N per segment).
	var active []float64
	for i := 0; i < len(times)-1; i++ {
		// Apply departures then arrivals at times[i] (half-open intervals).
		for _, s := range rems[i] {
			for k, v := range active {
				if v == s {
					active[k] = active[len(active)-1]
					active = active[:len(active)-1]
					break
				}
			}
		}
		active = append(active, adds[i]...)
		if len(active) == 0 {
			continue
		}
		length := times[i+1] - times[i]
		if length <= 0 {
			continue
		}
		visit(length, active)
	}
}

// TotalExact computes OPT_total(R) exactly by solving classical bin
// packing on every segment of the timeline. nodeLimit bounds each
// segment's branch-and-bound search (0 means binpack.DefaultNodeLimit).
// If any segment's search is cut off, ok is false and the returned value
// is an upper estimate.
func TotalExact(l item.List, nodeLimit int) (total float64, ok bool) {
	_, nodeLimit = limits(0, nodeLimit)
	ok = true
	segments(l, func(length float64, sizes []float64) {
		n, complete := binpack.ExactWithLimit(sizes, 1, nodeLimit)
		if !complete {
			ok = false
		}
		total += float64(n) * length
	})
	return total, ok
}

// Total computes a certified bracket on OPT_total. Segments small enough
// are solved exactly (contributing equally to both sides); larger ones
// contribute the L2 lower bound and the best of FFD/BFD as upper bound.
// exactLimit is the maximum number of active items for which the exact
// solver is invoked (0 means 64); nodeLimit as in TotalExact. Segments
// are bracketed as the sweep yields them, so memory stays O(active).
func Total(l item.List, exactLimit, nodeLimit int) Bounds {
	exactLimit, nodeLimit = limits(exactLimit, nodeLimit)
	b := Bounds{Exact: true}
	segments(l, func(length float64, sizes []float64) {
		b.add(bracket(length, sizes, exactLimit, nodeLimit))
	})
	return b
}

// limits resolves Total's and TotalParallel's zero defaults: 64 active
// items for the exact solver, binpack.DefaultNodeLimit search nodes.
func limits(exactLimit, nodeLimit int) (int, int) {
	if exactLimit == 0 {
		exactLimit = 64
	}
	if nodeLimit == 0 {
		nodeLimit = binpack.DefaultNodeLimit
	}
	return exactLimit, nodeLimit
}

// bracket is one segment's certified contribution to the OPT_total
// bracket: the exact optimum times the segment length on both sides when
// the segment has at most exactLimit items and the search completes,
// else L2 below and the best of FFD/BFD above.
func bracket(length float64, sizes []float64, exactLimit, nodeLimit int) Bounds {
	if len(sizes) <= exactLimit {
		if n, complete := binpack.ExactWithLimit(sizes, 1, nodeLimit); complete {
			v := float64(n) * length
			return Bounds{Lower: v, Upper: v, Exact: true}
		}
	}
	lo := binpack.L2(sizes, 1)
	hi := binpack.FirstFitDecreasing(sizes, 1)
	if bfd := binpack.BestFitDecreasing(sizes, 1); bfd < hi {
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

// OptAt returns OPT(R, t): the minimum number of bins for the items
// active at time t (exact; small active sets only).
func OptAt(l item.List, t float64) int {
	return binpack.Exact(l.ActiveSizesAt(t), 1)
}

// MaxConcurrentOpt returns max_t OPT(R, t), the classical DBP offline
// optimum with repacking — the denominator of the standard DBP
// competitive ratio the paper contrasts with (Sec. II).
func MaxConcurrentOpt(l item.List) int {
	best := 0
	segments(l, func(_ float64, sizes []float64) {
		if n := binpack.Exact(sizes, 1); n > best {
			best = n
		}
	})
	return best
}

// TotalVec computes a certified bracket on OPT_total for vector (multi-
// dimensional) instances: per-dimension continuous load as lower bound and
// vector First Fit (by decreasing max component) as upper bound. Exact
// vector packing is out of scope (the paper leaves multi-dimensional
// MinUsageTime DBP as future work; experiment E10 only needs brackets).
func TotalVec(l item.List) Bounds {
	times := l.EventTimes()
	b := Bounds{}
	for i := 0; i+1 < len(times); i++ {
		t := times[i]
		var sizes [][]float64
		for _, it := range l {
			if it.Interval().Contains(t) {
				sizes = append(sizes, it.SizeVec())
			}
		}
		if len(sizes) == 0 {
			continue
		}
		length := times[i+1] - times[i]
		lo := binpack.L1Vec(sizes, 1)
		if lo == 0 {
			lo = 1
		}
		b.Lower += float64(lo) * length
		b.Upper += float64(binpack.FirstFitVec(sizes, 1)) * length
	}
	b.Exact = b.Upper-b.Lower < 1e-12
	return b
}

// segmentData is one materialized timeline segment (for parallel
// solving): the active sizes are copied out of the sweep's mutable state.
type segmentData struct {
	length float64
	sizes  []float64
}

// TotalParallel is Total with the per-segment bracket solved on up to
// workers goroutines (workers <= 0 uses GOMAXPROCS). Segments are
// independent classical bin-packing instances, so this is an
// embarrassingly parallel integral; it materializes every segment, and
// folds the brackets in timeline order, making the result bit-identical
// to the sequential Total.
func TotalParallel(l item.List, exactLimit, nodeLimit, workers int) Bounds {
	exactLimit, nodeLimit = limits(exactLimit, nodeLimit)
	var segs []segmentData
	segments(l, func(length float64, sizes []float64) {
		segs = append(segs, segmentData{length: length, sizes: append([]float64(nil), sizes...)})
	})
	parts := parallel.Map(len(segs), workers, func(i int) Bounds {
		return bracket(segs[i].length, segs[i].sizes, exactLimit, nodeLimit)
	})
	b := Bounds{Exact: true}
	for _, p := range parts {
		b.add(p)
	}
	return b
}
