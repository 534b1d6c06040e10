package analysis

import (
	"fmt"
	"math"

	"dbp/internal/interval"
	"dbp/internal/packing"
)

// This file implements the supplier-period machinery of Sections VI–VII:
// pairing of consecutive l-subperiods (Definition 1), consolidation
// (Definition 2), supplier periods, the intersection census behind Lemma
// 2, and the amortized-utilization measurement that powers inequality
// chains (10)/(13) and ultimately Theorem 1.
//
// Reconstruction note (see the package comment): the numeric constants in
// the source text of Definitions 1–2 and the supplier-period interval
// arithmetic did not survive to us intact, so they are PARAMETERS here
// (SupplierParams) with defaults chosen to be self-consistent with the
// surviving propositions. VerifySupplierDisjointness and
// MeasureAmortizedLevel report what actually holds on concrete packings;
// experiment E11 sweeps the parameterization. Theorem 1 itself is
// verified independently of any of this (experiment E1).

// SupplierParams parameterizes the reconstructed Sections VI–VII
// machinery.
type SupplierParams struct {
	// LeftFrac and RightFrac size a single l-subperiod's supplier period
	// as u(x) = [x.Lo - LeftFrac*|x|, x.Lo + RightFrac*|x|).
	LeftFrac, RightFrac float64
	// PairSlack is the fraction c in Definition 1's pairing condition
	// |x_{l,i+1}| > c*(window - |x_{l,i}|): two consecutive l-subperiods
	// with a common supplier form a pair when the second is long relative
	// to the window remainder of the first.
	PairSlack float64
}

// DefaultSupplierParams is the self-consistent reconstruction used by
// default: symmetric half-length extensions and Definition 1 as printed.
func DefaultSupplierParams() SupplierParams {
	return SupplierParams{LeftFrac: 0.5, RightFrac: 0.5, PairSlack: 1}
}

// LGroup is a single l-subperiod or a maximal consolidated run of paired
// l-subperiods from one bin (Definition 2), together with its supplier
// period.
type LGroup struct {
	BinIndex      int
	SupplierIndex int
	// Members are the l-subperiods in the group, in order (length 1 for a
	// single l-subperiod).
	Members []Subperiod
	// Supplier is the supplier period u(x) on the supplier bin's
	// timeline.
	Supplier interval.Interval
}

// Span returns the union of the group's member intervals (they are
// disjoint and ordered).
func (g LGroup) Span() float64 {
	var s float64
	for _, m := range g.Members {
		s += m.Interval.Length()
	}
	return s
}

// BuildLGroups runs pairing and consolidation over the l-subperiods of
// every bin and attaches supplier periods. Subperiods without a supplier
// (possible only on non-First-Fit runs) are skipped.
func BuildLGroups(all []BinSubperiods, p SupplierParams) []LGroup {
	var groups []LGroup
	for _, bs := range all {
		var ls []Subperiod
		for _, sp := range bs.Subperiods {
			if !sp.High && sp.SupplierIndex >= 0 {
				ls = append(ls, sp)
			}
		}
		if len(ls) == 0 {
			continue
		}
		// Walk maximal paired runs.
		start := 0
		for i := 1; i <= len(ls); i++ {
			if i < len(ls) && paired(ls[i-1], ls[i], bs.Window, p) {
				continue
			}
			groups = append(groups, makeGroup(bs.Bin.Index, ls[start:i], p))
			start = i
		}
	}
	return groups
}

// paired implements Definition 1 (parameterized): consecutive
// l-subperiods (adjacent selection indices) with the same supplier bin
// form a pair when |x_{l,i+1}| > PairSlack * (window - |x_{l,i}|).
func paired(a, b Subperiod, window float64, p SupplierParams) bool {
	if a.Index+1 != b.Index {
		return false
	}
	if a.SupplierIndex != b.SupplierIndex {
		return false
	}
	return b.Interval.Length() > p.PairSlack*(window-a.Interval.Length())
}

// makeGroup attaches the supplier period. For a single l-subperiod x:
// [x.Lo - L*|x|, x.Lo + R*|x|). For a consolidated run x_i..x_j
// (mirroring the paper's Definition 2 shape): the left end extends from
// the second member's start by the larger of the first two members'
// half-extents, and the right end is the last member's start plus
// R*|x_j|.
func makeGroup(binIndex int, members []Subperiod, p SupplierParams) LGroup {
	g := LGroup{BinIndex: binIndex, SupplierIndex: members[0].SupplierIndex, Members: members}
	first := members[0].Interval
	last := members[len(members)-1].Interval
	if len(members) == 1 {
		g.Supplier = interval.Interval{
			Lo: first.Lo - p.LeftFrac*first.Length(),
			Hi: first.Lo + p.RightFrac*first.Length(),
		}
		return g
	}
	second := members[1].Interval
	leftExtent := math.Max(p.LeftFrac*first.Length(), p.LeftFrac*second.Length())
	g.Supplier = interval.Interval{
		Lo: second.Lo - leftExtent,
		Hi: last.Lo + p.RightFrac*last.Length(),
	}
	if g.Supplier.Hi < g.Supplier.Lo {
		// Degenerate parameterization; clamp to empty at the left end.
		g.Supplier = interval.Interval{Lo: g.Supplier.Lo, Hi: g.Supplier.Lo}
	}
	return g
}

// IntersectionReport is the census behind Lemma 2: how many supplier
// periods sharing a supplier bin overlap, and the total overlap measure.
type IntersectionReport struct {
	Groups        int
	Pairs         int // groups whose Members length > 1
	Intersections int
	OverlapTime   float64
}

// CheckSupplierDisjointness measures whether the supplier periods of all
// groups are pairwise disjoint when they share a supplier bin (the
// content of Lemma 2). It returns the census; Intersections == 0 means
// the lemma's conclusion holds for this parameterization on this run.
func CheckSupplierDisjointness(groups []LGroup) IntersectionReport {
	r := IntersectionReport{Groups: len(groups)}
	for _, g := range groups {
		if len(g.Members) > 1 {
			r.Pairs++
		}
	}
	for i := 0; i < len(groups); i++ {
		for j := i + 1; j < len(groups); j++ {
			if groups[i].SupplierIndex != groups[j].SupplierIndex {
				continue
			}
			ov := groups[i].Supplier.Intersect(groups[j].Supplier)
			if !ov.Empty() {
				r.Intersections++
				r.OverlapTime += ov.Length()
			}
		}
	}
	return r
}

// AmortizedReport measures the utilization statement of Section VII: the
// aggregate time-space demand accumulated over all l-subperiods and
// their supplier periods, against the aggregate length — the quantity
// the paper lower-bounds by 1/(mu+3) on the way to Theorem 1.
type AmortizedReport struct {
	Length float64 // sum of |u(x)| + |x| over groups
	Demand float64 // time-space demand of supplier bins over u(x) plus selected items over x
	Window float64
}

// Level returns Demand/Length, the measured amortized bin level.
func (a AmortizedReport) Level() float64 {
	if a.Length == 0 {
		return 0
	}
	return a.Demand / a.Length
}

// PaperBound returns the reconstruction of the paper's per-group lower
// bound 1/(2*(window+3)) on the amortized level (Sec. VII derives
// constants of this shape; the measured level should sit well above it).
func (a AmortizedReport) PaperBound() float64 { return 1 / (2 * (a.Window + 3)) }

// MeasureAmortizedLevel computes the demand/length ratio over all groups
// of a First Fit run. Demand over an l-subperiod counts only the
// selected small item (as the proof does); demand over a supplier period
// counts the supplier bin's items resident during it.
func MeasureAmortizedLevel(res *packing.Result, all []BinSubperiods, groups []LGroup) AmortizedReport {
	var rep AmortizedReport
	if len(all) > 0 {
		rep.Window = all[0].Window
	}
	for _, g := range groups {
		rep.Length += g.Supplier.Length()
		rep.Demand += demandOver(&res.Bins[g.SupplierIndex], g.Supplier)
		for _, m := range g.Members {
			rep.Length += m.Interval.Length()
			// Selected item's demand over the l-subperiod.
			for _, it := range res.Bins[g.BinIndex].Items {
				if it.Arrival == m.Interval.Lo && it.Size < smallThreshold {
					ov := it.Interval().Intersect(m.Interval)
					rep.Demand += it.Size * ov.Length()
					break
				}
			}
		}
	}
	return rep
}

// demandOver integrates a bin's level over the window from its record.
func demandOver(b *packing.ServerRecord, w interval.Interval) float64 {
	var d float64
	for _, it := range b.Items {
		ov := it.Interval().Intersect(w)
		d += it.Size * ov.Length()
	}
	return d
}

// String renders the census for experiment tables.
func (r IntersectionReport) String() string {
	return fmt.Sprintf("groups=%d pairs=%d intersections=%d overlap=%.4g",
		r.Groups, r.Pairs, r.Intersections, r.OverlapTime)
}
