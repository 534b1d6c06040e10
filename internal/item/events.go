package item

import (
	"cmp"
	"slices"
)

// The list's timeline is read two ways, both built on one sort of
// 16-byte (time, list position) keys, one run per kind — a run already in
// order, as a generator's arrivals are, is only checked:
//
//   - Events is the deterministic event order that drives the online
//     packing simulation. Events are ordered by time; at equal times,
//     departures are processed before arrivals (intervals are half-open,
//     so an item departing at t is already gone when another arrives at
//     t), and ties within a kind follow the items' (Arrival, ID) order, so
//     generators control same-instant sequencing via IDs. This ordering is
//     exactly what the paper's adversarial constructions assume ("at time
//     0, let n pairs of items arrive in sequence", Sec. VIII). Items equal
//     on all of that keep their list order, so the order is total. It
//     merges the two runs by time and kind; it never sorts the events
//     themselves.
//   - Segments is the sweep over the piecewise-constant active set that
//     every integral over time (OPT_total, Sec. III-C) and every peak
//     load is taken on.

// Kind distinguishes arrivals from departures.
type Kind uint8

const (
	// Depart events fire when an item leaves its bin. They sort before
	// Arrive events at the same timestamp.
	Depart Kind = iota
	// Arrive events fire when an item must be placed.
	Arrive
)

// String returns "arrive" or "depart".
func (k Kind) String() string {
	if k == Arrive {
		return "arrive"
	}
	return "depart"
}

// Event is a timed arrival or departure of an item.
type Event struct {
	Time float64
	Kind Kind
	Item Item
}

// Events returns the arrival and departure events of every item in the
// list, 2n in all, in processing order. arrivalsFirst false (the model's
// default, matching half-open intervals) processes departures before
// arrivals at equal times; arrivalsFirst true flips that — an ablation
// (DESIGN.md §6) under which capacity freed at time t is NOT reusable by
// an arrival at t.
func (l List) Events(arrivalsFirst bool) []Event {
	arr, dep := l.sortedKeys(false)
	evs := make([]Event, 0, 2*len(l))
	for len(arr) > 0 || len(dep) > 0 {
		if len(dep) == 0 || len(arr) > 0 && arrivesFirst(arr[0].time, dep[0].time, arrivalsFirst) {
			evs = append(evs, Event{Time: arr[0].time, Kind: Arrive, Item: l[arr[0].pos]})
			arr = arr[1:]
		} else {
			evs = append(evs, Event{Time: dep[0].time, Kind: Depart, Item: l[dep[0].pos]})
			dep = dep[1:]
		}
	}
	return evs
}

// Segments calls visit once per maximal interval [lo, hi) of positive
// length on which the set of active items is constant and non-empty, in
// increasing time. active holds the list positions of those items in
// ascending order, so a sum or an in-order packing over it visits them in
// list order; visit must neither keep nor modify it. An item is active
// exactly where Interval.Contains says: an item of zero or negative
// length, or with a NaN time, is never active. An item active from -Inf
// or until +Inf gives a segment of infinite length.
func (l List) Segments(visit func(lo, hi float64, active []int)) {
	arr, dep := l.sortedKeys(true)
	var active []int
	for len(dep) > 0 {
		// The runs hold no NaN, so t equals the head of one of them and
		// each pass consumes at least one key.
		t := dep[0].time
		if len(arr) > 0 && arr[0].time < t {
			t = arr[0].time
		}
		for len(dep) > 0 && dep[0].time == t {
			i, _ := slices.BinarySearch(active, dep[0].pos)
			active = slices.Delete(active, i, i+1)
			dep = dep[1:]
		}
		for len(arr) > 0 && arr[0].time == t {
			i, _ := slices.BinarySearch(active, arr[0].pos)
			active = slices.Insert(active, i, arr[0].pos)
			arr = arr[1:]
		}
		if len(active) > 0 {
			// An active item departs later, so dep is not empty.
			hi := dep[0].time
			if len(arr) > 0 && arr[0].time < hi {
				hi = arr[0].time
			}
			visit(t, hi, active)
		}
	}
}

// key is one event of the sort: its time and the position of its item in
// the list. Which run it sits in gives its kind.
type key struct {
	time float64
	pos  int
}

// sortedKeys returns the arrival and departure keys of every item, or of
// the items of positive length only if activeOnly (a NaN time fails that
// test too), each run sorted by compare.
func (l List) sortedKeys(activeOnly bool) (arr, dep []key) {
	keys := make([]key, 2*len(l))
	arr, dep = keys[:0:len(l)], keys[len(l):len(l)]
	for i, it := range l {
		if !activeOnly || it.Arrival < it.Departure {
			arr = append(arr, key{it.Arrival, i})
			dep = append(dep, key{it.Departure, i})
		}
	}
	byKey := func(a, b key) int { return compare(l, a, b) }
	for _, run := range [][]key{arr, dep} {
		if !slices.IsSortedFunc(run, byKey) {
			slices.SortFunc(run, byKey)
		}
	}
	return arr, dep
}

// compare orders two events of one kind: by time, then the item's
// arrival, then its ID, then its list position. The position makes the
// order total, so Events' output is fixed even for duplicate IDs and NaN
// times (which cmp.Compare puts first): it is the stable sort by (time,
// kind, item arrival, item ID) of the events listed item by item.
func compare(l List, a, b key) int {
	if c := cmp.Compare(a.time, b.time); c != 0 {
		return c
	}
	x, y := &l[a.pos], &l[b.pos]
	if c := cmp.Compare(x.Arrival, y.Arrival); c != 0 {
		return c
	}
	if c := cmp.Compare(x.ID, y.ID); c != 0 {
		return c
	}
	return cmp.Compare(a.pos, b.pos)
}

// arrivesFirst reports whether an arrival at time a is processed before a
// departure at time d: at equal times departures go first unless
// arrivalsFirst.
func arrivesFirst(a, d float64, arrivalsFirst bool) bool {
	c := cmp.Compare(a, d)
	return c < 0 || c == 0 && arrivalsFirst
}
