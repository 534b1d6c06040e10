// Package event defines the deterministic event order that drives the
// online packing simulation. Events are ordered by time; at equal times,
// departures are processed before arrivals (intervals are half-open, so an
// item departing at t is already gone when another arrives at t), and ties
// within a kind follow the items' (Arrival, ID) order, so generators control
// same-instant sequencing via IDs. This ordering is exactly what the
// paper's adversarial constructions assume ("at time 0, let n pairs of
// items arrive in sequence", Sec. VIII).
package event

import (
	"cmp"
	"slices"

	"dbp/internal/item"
)

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
	Item item.Item
}

// Order returns the arrival and departure events of every item in the
// list, 2n in all, in processing order. arrivalsFirst false (the model's
// default, matching half-open intervals) processes departures before
// arrivals at equal times; arrivalsFirst true flips that — an ablation
// (DESIGN.md §6) under which capacity freed at time t is NOT reusable by
// an arrival at t.
func Order(l item.List, arrivalsFirst bool) []Event {
	evs := make([]Event, 0, 2*len(l))
	for _, it := range l {
		evs = append(evs,
			Event{Time: it.Arrival, Kind: Arrive, Item: it},
			Event{Time: it.Departure, Kind: Depart, Item: it})
	}
	slices.SortStableFunc(evs, func(a, b Event) int { return compare(a, b, arrivalsFirst) })
	return evs
}

// compare is the whole processing order: time, then kind (departures
// first unless arrivalsFirst), then the item's arrival, then its ID. Items
// equal on all four keep their list order (Order's sort is stable).
func compare(a, b Event, arrivalsFirst bool) int {
	if c := cmp.Compare(a.Time, b.Time); c != 0 {
		return c
	}
	if a.Kind != b.Kind {
		if (a.Kind == Depart) != arrivalsFirst {
			return -1
		}
		return 1
	}
	if c := cmp.Compare(a.Item.Arrival, b.Item.Arrival); c != 0 {
		return c
	}
	return cmp.Compare(a.Item.ID, b.Item.ID)
}
