package item

import (
	"cmp"
	"math"
	"slices"
)

// The list's timeline is read two ways, both built on one sort of
// 16-byte (time, list position) keys, one run per kind — a run already in
// order, as a generator's arrivals are, is only checked:
//
//   - Steps is the deterministic event order that drives the online
//     packing simulation (Events is the same order with each event's
//     time and item copied out). Events are ordered by time; at equal times,
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

// Step is one event of a list's processing order: its kind and the list
// position of its item.
type Step struct {
	Pos  int
	Kind Kind
}

// Time returns the step's event time: its item's Arrival or Departure.
func (s Step) Time(l List) float64 {
	if s.Kind == Arrive {
		return l[s.Pos].Arrival
	}
	return l[s.Pos].Departure
}

// Steps returns the arrival and departure steps of every item in the
// list, 2n in all, in processing order. arrivalsFirst false (the model's
// default, matching half-open intervals) processes departures before
// arrivals at equal times; arrivalsFirst true flips that — an ablation
// (DESIGN.md §6) under which capacity freed at time t is NOT reusable by
// an arrival at t.
func (l List) Steps(arrivalsFirst bool) []Step {
	arr, dep := l.sortedKeys(false)
	steps := make([]Step, 0, 2*len(l))
	for len(arr) > 0 || len(dep) > 0 {
		if len(dep) == 0 || len(arr) > 0 && (arr[0].ord < dep[0].ord || arr[0].ord == dep[0].ord && arrivalsFirst) {
			steps = append(steps, Step{arr[0].pos, Arrive})
			arr = arr[1:]
		} else {
			steps = append(steps, Step{dep[0].pos, Depart})
			dep = dep[1:]
		}
	}
	return steps
}

// Events is Steps with each step's time and item copied out.
func (l List) Events(arrivalsFirst bool) []Event {
	evs := make([]Event, 0, 2*len(l))
	for _, s := range l.Steps(arrivalsFirst) {
		evs = append(evs, Event{Time: s.Time(l), Kind: s.Kind, Item: l[s.Pos]})
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
		// t is the head of one of the runs, so each pass consumes at least
		// one key; lo is that head's time.
		t, lo := dep[0].ord, l[dep[0].pos].Departure
		if len(arr) > 0 && arr[0].ord < t {
			t, lo = arr[0].ord, l[arr[0].pos].Arrival
		}
		for len(dep) > 0 && dep[0].ord == t {
			i, _ := slices.BinarySearch(active, dep[0].pos)
			active = slices.Delete(active, i, i+1)
			dep = dep[1:]
		}
		for len(arr) > 0 && arr[0].ord == t {
			i, _ := slices.BinarySearch(active, arr[0].pos)
			active = slices.Insert(active, i, arr[0].pos)
			arr = arr[1:]
		}
		if len(active) > 0 {
			// An active item departs later, so dep is not empty.
			hi := l[dep[0].pos].Departure
			if len(arr) > 0 && arr[0].ord < dep[0].ord {
				hi = l[arr[0].pos].Arrival
			}
			visit(lo, hi, active)
		}
	}
}

// key is one event of the sort: its time (or its item's ID) as an
// integer of the same order, and the list position of its item.
type key struct {
	ord uint64
	pos int
}

// sortedKeys returns the arrival and departure keys of every item, or of
// the items of positive length only if activeOnly (a NaN time fails that
// test too), each run in (time, item arrival, item ID, list position)
// order: stable sorts by time of keys in the order of the last three.
func (l List) sortedKeys(activeOnly bool) (arr, dep []key) {
	keys := make([]key, 2*len(l))
	arr = keys[:0:len(l)]
	for i, it := range l {
		if !activeOnly || it.Arrival < it.Departure {
			arr = append(arr, key{uint64(it.ID) ^ 1<<63, i})
		}
	}
	sortStable(arr)
	for i, k := range arr {
		arr[i].ord = timeOrder(l[k.pos].Arrival)
	}
	sortStable(arr)
	dep = keys[len(l) : len(l)+len(arr)]
	for i, k := range arr {
		dep[i] = key{timeOrder(l[k.pos].Departure), k.pos}
	}
	sortStable(dep)
	return arr, dep
}

// radixMin is the run length from which sortStable uses an LSD radix sort
// of 11-bit digits, whose counting passes cost the same at any length:
// shorter runs, as Result.Verify's per-server ones, sort by comparison.
const radixMin = 2048

// sortStable sorts keys stably by ord. The radix sort skips a pass in
// which every key has the same digit.
func sortStable(keys []key) {
	byOrd := func(a, b key) int { return cmp.Compare(a.ord, b.ord) }
	if slices.IsSortedFunc(keys, byOrd) {
		return
	}
	if len(keys) < radixMin {
		slices.SortStableFunc(keys, byOrd)
		return
	}
	const bits, mask = 11, 1<<11 - 1
	var count [(64 + bits - 1) / bits][1 << bits]int
	for _, k := range keys {
		for d := range count {
			count[d][k.ord>>(d*bits)&mask]++
		}
	}
	src, dst := keys, make([]key, len(keys))
	for d := range count {
		c, shift := &count[d], d*bits
		if c[src[0].ord>>shift&mask] == len(src) {
			continue
		}
		sum := 0
		for i, n := range c {
			c[i], sum = sum, sum+n
		}
		for _, k := range src {
			j := k.ord >> shift & mask
			dst[c[j]] = k
			c[j]++
		}
		src, dst = dst, src
	}
	copy(keys, src)
}

// timeOrder maps a time to an integer in cmp.Compare's order: every NaN
// to 0, below -Inf, and -0 to +0.
func timeOrder(t float64) uint64 {
	if t != t {
		return 0
	}
	b := math.Float64bits(t + 0)              // -0 + 0 is +0
	return b ^ (uint64(int64(b)>>63) | 1<<63) // a negative's bits flip
}
