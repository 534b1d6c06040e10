// Package item defines the items (jobs) of the MinUsageTime Dynamic Bin
// Packing problem: each item has a size — its resource demand as a fraction
// of unit server capacity — and an active interval [Arrival, Departure).
//
// Online algorithms must not look at an item's departure time when placing
// it (the departure is unknown at arrival in the problem model); the
// packing simulator enforces this by only exposing arrival views to
// algorithms. The full Item carries the departure so the simulator can
// schedule it.
//
// A list's timeline has one reading for the simulator, List.Steps (the
// total event order, as list positions), and one for every integral or
// peak over time, List.Segments (the piecewise-constant active set); both
// share one key sort.
package item

import (
	"fmt"
	"math"
	"slices"

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

func (it Item) validate(capacity float64, dim int) error {
	if math.IsNaN(it.Arrival) || math.IsNaN(it.Departure) ||
		math.IsInf(it.Arrival, 0) || math.IsInf(it.Departure, 0) {
		return fmt.Errorf("item %d: non-finite interval [%g, %g)", it.ID, it.Arrival, it.Departure)
	}
	if it.Departure <= it.Arrival {
		return fmt.Errorf("item %d: non-positive duration [%g, %g)", it.ID, it.Arrival, it.Departure)
	}
	return it.CheckDemand(capacity, dim)
}

// CheckDemand is the one rule a job's demand is admitted by, on every
// front end: Size in (0, capacity], dim components, each in [0,
// capacity], and Size the largest of them (within 1e-12) — the
// convention the size-classifying policies and every scalar capacity
// check rely on. There is no tolerance: a size a hair over capacity is
// refused. A fault is a *DemandError.
func (it Item) CheckDemand(capacity float64, dim int) error {
	if !(it.Size > 0) || it.Size > capacity {
		return &DemandError{fmt.Sprintf("job %d size %g cannot fit any server of capacity %g", it.ID, it.Size, capacity)}
	}
	if it.Dim() != dim {
		return &DemandError{fmt.Sprintf("job %d has dim %d, servers have dim %d", it.ID, it.Dim(), dim)}
	}
	if len(it.Sizes) == 0 {
		return nil
	}
	maxc := 0.0
	for d, s := range it.Sizes {
		if !(s >= 0) || s > capacity {
			return &DemandError{fmt.Sprintf("job %d demand %g in dim %d cannot fit any server of capacity %g", it.ID, s, d, capacity)}
		}
		maxc = max(maxc, s)
	}
	if math.Abs(maxc-it.Size) > 1e-12 {
		return &DemandError{fmt.Sprintf("job %d: Size %g != max(Sizes) %g", it.ID, it.Size, maxc)}
	}
	return nil
}

// DemandError reports a demand that no server of the capacity and
// dimension it was checked against can hold.
type DemandError struct{ msg string }

func (e *DemandError) Error() string { return e.msg }

// String renders the item compactly for diagnostics.
func (it Item) String() string {
	return fmt.Sprintf("item{%d size=%g %s}", it.ID, it.Size, it.Interval())
}

// List is an instance of the MinUsageTime DBP problem: a multiset of items.
// Order is not significant (the simulator orders events by time), but
// generators emit items sorted by arrival for readability.
type List []Item

// Validate is ValidateCap(1, 0).
func (l List) Validate() error { return l.ValidateCap(1, 0) }

// ValidateCap checks, in one pass, every item's interval and its demand
// against servers of the given capacity and dimension (CheckDemand; dim 0
// means the first item's, so a valid list has one dimension), then the
// uniqueness of IDs, sorted and compared in pairs.
func (l List) ValidateCap(capacity float64, dim int) error {
	if dim == 0 && len(l) > 0 {
		dim = l[0].Dim()
	}
	ids := make([]ID, len(l))
	for i, it := range l {
		if err := it.validate(capacity, dim); err != nil {
			return err
		}
		ids[i] = it.ID
	}
	slices.Sort(ids) // linear on IDs already in order, as generators emit them
	for i := 1; i < len(ids); i++ {
		if ids[i] == ids[i-1] {
			return fmt.Errorf("duplicate item ID %d", ids[i])
		}
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

// SortedByArrival returns a copy sorted by (Arrival, ID), equal items in
// list order: the order of its arrival steps (List.Steps), so keeping IDs
// monotone in generation order preserves each construction's intended
// sequence.
func (l List) SortedByArrival() List {
	out := make(List, 0, len(l))
	for _, s := range l.Steps(false) {
		if s.Kind == Arrive {
			out = append(out, l[s.Pos])
		}
	}
	return out
}

// MaxConcurrentLoad returns the maximum over time of the total active size,
// a convenient load statistic for workload reports. Each segment's load
// is summed in list order.
func (l List) MaxConcurrentLoad() float64 {
	var peak float64
	l.Segments(func(_, _ float64, active []int) {
		var load float64
		for _, i := range active {
			load += l[i].Size
		}
		peak = math.Max(peak, load)
	})
	return peak
}
