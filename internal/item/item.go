// Package item defines the items (jobs) of the MinUsageTime Dynamic Bin
// Packing problem: each item has a size — its resource demand as a fraction
// of unit server capacity — and an active interval [Arrival, Departure).
//
// Online algorithms must not look at an item's departure time when placing
// it (the departure is unknown at arrival in the problem model); the
// packing simulator enforces this by only exposing arrival views to
// algorithms. The full Item carries the departure so the simulator can
// schedule it.
package item

import (
	"fmt"
	"math"
	"sort"

	"dbp/internal/interval"
)

// ID identifies an item within a list. IDs are assigned by generators and
// must be unique within a List.
type ID int64

// Item is a job to be dispatched: it demands Size resources (of a unit
// capacity bin) throughout its active interval [Arrival, Departure).
//
// For the multi-dimensional extension (paper Sec. IX, future work), an item
// may carry a vector demand in Sizes; scalar Size is then the max component
// (used by size-classifying algorithms). When Sizes is nil the item is the
// ordinary one-dimensional item of the paper.
type Item struct {
	ID        ID
	Size      float64
	Sizes     []float64 // optional vector demand; nil for 1-D items
	Arrival   float64
	Departure float64
}

// Interval returns the item's active interval I(r) = [Arrival, Departure).
func (it Item) Interval() interval.Interval {
	return interval.Interval{Lo: it.Arrival, Hi: it.Departure}
}

// Duration returns |I(r)|, the item's active duration.
func (it Item) Duration() float64 { return it.Departure - it.Arrival }

// Demand returns the item's time–space demand s(r)*|I(r)| (paper Prop. 1).
func (it Item) Demand() float64 { return it.Size * it.Duration() }

// Dim returns the dimensionality of the item's demand (1 for scalar items).
func (it Item) Dim() int {
	if len(it.Sizes) == 0 {
		return 1
	}
	return len(it.Sizes)
}

// SizeVec returns the demand vector of the item. For 1-D items it is the
// one-element slice {Size}. The returned slice must not be modified.
func (it Item) SizeVec() []float64 {
	if len(it.Sizes) == 0 {
		return []float64{it.Size}
	}
	return it.Sizes
}

// Validate is ValidateCap(1): the checks against a unit server, the
// paper's normalization.
func (it Item) Validate() error { return it.ValidateCap(1) }

// ValidateCap checks the structural invariants an item must satisfy to
// take part in a packing on servers of the given capacity: positive
// finite duration, size in (0, capacity] (it must fit in an empty
// server), and consistent vector demand if present. A size outside its
// range is a *SizeError.
func (it Item) ValidateCap(capacity float64) error {
	if math.IsNaN(it.Arrival) || math.IsNaN(it.Departure) ||
		math.IsInf(it.Arrival, 0) || math.IsInf(it.Departure, 0) {
		return fmt.Errorf("item %d: non-finite interval [%g, %g)", it.ID, it.Arrival, it.Departure)
	}
	if it.Departure <= it.Arrival {
		return fmt.Errorf("item %d: non-positive duration [%g, %g)", it.ID, it.Arrival, it.Departure)
	}
	if !(it.Size > 0) || it.Size > capacity {
		return &SizeError{fmt.Sprintf("item %d: size %g outside (0, %g]", it.ID, it.Size, capacity)}
	}
	for d, s := range it.Sizes {
		if !(s >= 0) || s > capacity {
			return &SizeError{fmt.Sprintf("item %d: sizes[%d] = %g outside [0, %g]", it.ID, d, s, capacity)}
		}
	}
	return it.CheckDominant()
}

// SizeError reports a demand that no server of the capacity an item was
// validated against can hold.
type SizeError struct{ msg string }

func (e *SizeError) Error() string { return e.msg }

// CheckDominant returns an error unless a vector demand's Size is its
// largest component (within 1e-12) — the convention the size-classifying
// policies and every scalar capacity check rely on. A scalar item passes.
func (it Item) CheckDominant() error {
	if len(it.Sizes) == 0 {
		return nil
	}
	maxc := 0.0
	for _, s := range it.Sizes {
		maxc = math.Max(maxc, s)
	}
	if math.Abs(maxc-it.Size) > 1e-12 {
		return fmt.Errorf("item %d: Size %g != max(Sizes) %g", it.ID, it.Size, maxc)
	}
	return nil
}

// String renders the item compactly for diagnostics.
func (it Item) String() string {
	return fmt.Sprintf("item{%d size=%g %s}", it.ID, it.Size, it.Interval())
}

// List is an instance of the MinUsageTime DBP problem: a multiset of items.
// Order is not significant (the simulator orders events by time), but
// generators emit items sorted by arrival for readability.
type List []Item

// Validate is ValidateCap(1).
func (l List) Validate() error { return l.ValidateCap(1) }

// ValidateCap checks every item against servers of the given capacity and
// the uniqueness of IDs.
func (l List) ValidateCap(capacity float64) error {
	seen := make(map[ID]struct{}, len(l))
	for _, it := range l {
		if err := it.ValidateCap(capacity); err != nil {
			return err
		}
		if _, dup := seen[it.ID]; dup {
			return fmt.Errorf("duplicate item ID %d", it.ID)
		}
		seen[it.ID] = struct{}{}
	}
	return nil
}

// Span returns span(l): the measure of time during which at least one item
// is active (paper Sec. III-A, Figure 1).
func (l List) Span() float64 {
	ivs := make([]interval.Interval, len(l))
	for i, it := range l {
		ivs[i] = it.Interval()
	}
	return interval.Span(ivs)
}

// TotalSize returns s(l), the total size of all items (paper notation).
func (l List) TotalSize() float64 {
	var s float64
	for _, it := range l {
		s += it.Size
	}
	return s
}

// TotalDemand returns the total time–space demand, sum of s(r)*|I(r)|.
// By Proposition 1 of the paper this lower-bounds OPT_total for unit bins.
func (l List) TotalDemand() float64 {
	var d float64
	for _, it := range l {
		d += it.Demand()
	}
	return d
}

// PackingPeriod returns the hull interval from first arrival to last
// departure (the paper's packing period), or the empty interval for an
// empty list.
func (l List) PackingPeriod() interval.Interval {
	if len(l) == 0 {
		return interval.Interval{}
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, it := range l {
		lo = math.Min(lo, it.Arrival)
		hi = math.Max(hi, it.Departure)
	}
	return interval.Interval{Lo: lo, Hi: hi}
}

// MinDuration returns the minimum item duration; 0 for an empty list.
func (l List) MinDuration() float64 {
	if len(l) == 0 {
		return 0
	}
	m := math.Inf(1)
	for _, it := range l {
		m = math.Min(m, it.Duration())
	}
	return m
}

// MaxDuration returns the maximum item duration; 0 for an empty list.
func (l List) MaxDuration() float64 {
	var m float64
	for _, it := range l {
		m = math.Max(m, it.Duration())
	}
	return m
}

// Mu returns the duration ratio mu = max duration / min duration, the
// central parameter of the paper's bounds. It returns 1 for lists with at
// most one item and NaN if any item has non-positive duration.
func (l List) Mu() float64 {
	if len(l) <= 1 {
		return 1
	}
	minD, maxD := l.MinDuration(), l.MaxDuration()
	if minD <= 0 {
		return math.NaN()
	}
	return maxD / minD
}

// ActiveAt returns the items active at time t (those whose half-open
// interval contains t), in ID order for determinism.
func (l List) ActiveAt(t float64) List {
	var out List
	for _, it := range l {
		if it.Interval().Contains(t) {
			out = append(out, it)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ActiveSizesAt returns the sizes of items active at time t.
func (l List) ActiveSizesAt(t float64) []float64 {
	var out []float64
	for _, it := range l {
		if it.Interval().Contains(t) {
			out = append(out, it.Size)
		}
	}
	return out
}

// SortedByArrival returns a copy sorted by (Arrival, ID). The simulator
// orders equal-time arrivals the same way (event.Order), so keeping IDs
// monotone in generation order preserves each construction's intended
// sequence.
func (l List) SortedByArrival() List {
	out := make(List, len(l))
	copy(out, l)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Arrival != out[j].Arrival {
			return out[i].Arrival < out[j].Arrival
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Scale returns a copy of the list with all times multiplied by timeFactor
// (> 0). Sizes are unchanged. Scaling time leaves competitive ratios
// invariant, which tests exploit.
func (l List) Scale(timeFactor float64) List {
	out := make(List, len(l))
	for i, it := range l {
		it.Arrival *= timeFactor
		it.Departure *= timeFactor
		out[i] = it
	}
	return out
}

// EventTimes returns the sorted distinct arrival/departure times of the list.
func (l List) EventTimes() []float64 {
	ts := make([]float64, 0, 2*len(l))
	for _, it := range l {
		ts = append(ts, it.Arrival, it.Departure)
	}
	sort.Float64s(ts)
	out := ts[:0]
	for i, t := range ts {
		if i == 0 || t != out[len(out)-1] {
			out = append(out, t)
		}
	}
	return out
}

// MaxConcurrentLoad returns the maximum over time of the total active size,
// a convenient load statistic for workload reports.
func (l List) MaxConcurrentLoad() float64 {
	var peak float64
	for _, t := range l.EventTimes() {
		var load float64
		for _, it := range l {
			if it.Interval().Contains(t) {
				load += it.Size
			}
		}
		peak = math.Max(peak, load)
	}
	return peak
}
