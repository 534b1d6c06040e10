package item

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func TestQueueOrdering(t *testing.T) {
	l := List{
		{ID: 1, Size: 0.5, Arrival: 1, Departure: 2},
		{ID: 2, Size: 0.5, Arrival: 0, Departure: 1},
	}
	want := []struct {
		time float64
		kind Kind
		id   ID
	}{{0, Arrive, 2}, {1, Depart, 2}, {1, Arrive, 1}, {2, Depart, 1}}
	evs := l.Events(false)
	if len(evs) != len(want) {
		t.Fatalf("len = %d, want %d", len(evs), len(want))
	}
	for i, w := range want {
		if e := evs[i]; e.Time != w.time || e.Kind != w.kind || e.Item.ID != w.id {
			t.Fatalf("event %d = (%g, %v, %d), want (%g, %v, %d)", i, e.Time, e.Kind, e.Item.ID, w.time, w.kind, w.id)
		}
	}
}

func TestQueueFIFOWithinTies(t *testing.T) {
	// Ten items arrive together and depart together; both groups follow
	// the items' (Arrival, ID) order whatever order the list holds them in.
	var l List
	for _, i := range rand.New(rand.NewSource(1)).Perm(10) {
		l = append(l, Item{ID: ID(i), Size: 0.1, Arrival: 5, Departure: 6})
	}
	evs := l.Events(false)
	for i, e := range evs {
		if e.Item.ID != ID(i%10) {
			t.Fatalf("tie order broken: got %d at position %d", e.Item.ID, i)
		}
	}
}

func TestNewFromList(t *testing.T) {
	l := List{
		{ID: 2, Size: 0.5, Arrival: 0, Departure: 2},
		{ID: 1, Size: 0.5, Arrival: 0, Departure: 1},
	}
	evs := l.Events(false)
	if len(evs) != 4 {
		t.Fatalf("len = %d, want 4", len(evs))
	}
	// At time 0 both arrive; ID 1 (lower) must arrive first per the
	// (Arrival, ID) tie rule.
	if e := evs[0]; e.Kind != Arrive || e.Item.ID != 1 {
		t.Fatalf("first event = %+v", e)
	}
	if e := evs[1]; e.Kind != Arrive || e.Item.ID != 2 {
		t.Fatalf("second event = %+v", e)
	}
	// At time 1, item 1 departs before anything else happens.
	if e := evs[2]; e.Kind != Depart || e.Item.ID != 1 || e.Time != 1 {
		t.Fatalf("third event = %+v", e)
	}
}

func TestDepartBeforeArriveAtSameTime(t *testing.T) {
	l := List{
		{ID: 1, Size: 1, Arrival: 0, Departure: 1},
		{ID: 2, Size: 1, Arrival: 1, Departure: 2},
	}
	evs := l.Events(false) // evs[0]: arrive 1 at t=0
	if e := evs[1]; e.Kind != Depart || e.Item.ID != 1 {
		t.Fatalf("expected departure of 1 before arrival of 2 at t=1, got %+v", e)
	}
	if e := evs[2]; e.Kind != Arrive || e.Item.ID != 2 {
		t.Fatalf("expected arrival of 2, got %+v", e)
	}
}

func TestKindString(t *testing.T) {
	if Arrive.String() != "arrive" || Depart.String() != "depart" {
		t.Error("Kind.String mismatch")
	}
}

// randomTieList draws n items with small integer arrival times and
// durations, so equal times are common among arrivals, among departures
// and between the two, and returns them in shuffled order.
func randomTieList(rng *rand.Rand, n int) List {
	l := make(List, n)
	for i := range l {
		a := float64(rng.Intn(10))
		l[i] = Item{ID: ID(i), Size: 0.1, Arrival: a, Departure: a + float64(1+rng.Intn(5))}
	}
	rng.Shuffle(n, func(i, j int) { l[i], l[j] = l[j], l[i] })
	return l
}

func TestQueueRandomizedMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		l := randomTieList(rng, 1+rng.Intn(200))
		evs := l.Events(false)
		if len(evs) != 2*len(l) {
			t.Fatalf("len = %d, want %d", len(evs), 2*len(l))
		}
		prev := Event{Time: -1}
		for _, e := range evs {
			if e.Time < prev.Time {
				t.Fatal("time went backwards")
			}
			if e.Time == prev.Time && e.Kind < prev.Kind {
				t.Fatal("arrive ordered before depart at same time")
			}
			prev = e
		}
	}
}

// TestOrderMatchesExplicitKey holds Events to the rule it documents: on
// tie-heavy shuffled lists, under both tie rules, its output equals a
// brute-force selection sort by the explicit key (time, kind rank, item
// arrival, item ID).
func TestOrderMatchesExplicitKey(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		l := randomTieList(rng, 1+rng.Intn(60))
		for _, arrivalsFirst := range []bool{false, true} {
			key := func(e Event) [4]float64 {
				rank := 0.0 // departures first by default
				if (e.Kind == Arrive) != arrivalsFirst {
					rank = 1
				}
				return [4]float64{e.Time, rank, e.Item.Arrival, float64(e.Item.ID)}
			}
			less := func(a, b [4]float64) bool {
				for k := range a {
					if a[k] != b[k] {
						return a[k] < b[k]
					}
				}
				return false
			}
			var want []Event
			for _, it := range l {
				want = append(want,
					Event{Time: it.Arrival, Kind: Arrive, Item: it},
					Event{Time: it.Departure, Kind: Depart, Item: it})
			}
			for i := range want {
				m := i
				for j := i + 1; j < len(want); j++ {
					if less(key(want[j]), key(want[m])) {
						m = j
					}
				}
				want[i], want[m] = want[m], want[i]
			}
			got := l.Events(arrivalsFirst)
			for i := range want {
				if got[i].Time != want[i].Time || got[i].Kind != want[i].Kind || got[i].Item.ID != want[i].Item.ID {
					t.Fatalf("trial %d arrivalsFirst=%v: event %d = (%g, %v, %d), want (%g, %v, %d)",
						trial, arrivalsFirst, i, got[i].Time, got[i].Kind, got[i].Item.ID,
						want[i].Time, want[i].Kind, want[i].Item.ID)
				}
			}
		}
	}
}

func TestArrivalsFirstOrder(t *testing.T) {
	l := List{
		{ID: 1, Size: 1, Arrival: 0, Departure: 1},
		{ID: 2, Size: 1, Arrival: 1, Departure: 2},
	}
	evs := l.Events(true) // evs[0]: arrive 1 at t=0
	if e := evs[1]; e.Kind != Arrive || e.Item.ID != 2 {
		t.Fatalf("arrivals-first: expected arrival of 2 before departure of 1, got %v of %d", e.Kind, e.Item.ID)
	}
	if e := evs[2]; e.Kind != Depart || e.Item.ID != 1 {
		t.Fatalf("expected departure of 1, got %v of %d", e.Kind, e.Item.ID)
	}
}

// stableOrder is the reference event order: every item's two events,
// listed item by item, in one stable sort by stableCompare. Events must
// equal it bit for bit.
func stableOrder(l List, arrivalsFirst bool) []Event {
	evs := make([]Event, 0, 2*len(l))
	for _, it := range l {
		evs = append(evs,
			Event{Time: it.Arrival, Kind: Arrive, Item: it},
			Event{Time: it.Departure, Kind: Depart, Item: it})
	}
	slices.SortStableFunc(evs, func(a, b Event) int { return stableCompare(a, b, arrivalsFirst) })
	return evs
}

// stableCompare is the processing order on events: time, then kind
// (departures first unless arrivalsFirst), then the item's arrival, then
// its ID.
func stableCompare(a, b Event, arrivalsFirst bool) int {
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

// oracleTimes are the times the oracle lists draw from: few enough that
// equal times are common, with both zeros and NaN among them.
var oracleTimes = []float64{math.NaN(), math.Copysign(0, -1), 0, 1, 1.5, 2, 3, math.Inf(1)}

// oracleList builds a list from byte triples (arrival, departure, ID),
// each byte reduced into its range. Size carries the list position, so a
// comparison of events tells apart items that agree on every key.
func oracleList(data []byte) List {
	l := make(List, 0, len(data)/3)
	for i := 0; i+2 < len(data); i += 3 {
		l = append(l, Item{
			ID:        ID(data[i+2] % 8),
			Size:      float64(len(l)),
			Arrival:   oracleTimes[int(data[i])%len(oracleTimes)],
			Departure: oracleTimes[int(data[i+1])%len(oracleTimes)],
		})
	}
	return l
}

// checkOrder fails unless Events and stableOrder agree bit for bit on l.
func checkOrder(t *testing.T, l List, arrivalsFirst bool) {
	t.Helper()
	bits := math.Float64bits
	got, want := l.Events(arrivalsFirst), stableOrder(l, arrivalsFirst)
	if len(got) != len(want) {
		t.Fatalf("arrivalsFirst=%v: %d events, want %d", arrivalsFirst, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if bits(g.Time) != bits(w.Time) || g.Kind != w.Kind || g.Item.ID != w.Item.ID || bits(g.Item.Size) != bits(w.Item.Size) {
			t.Fatalf("arrivalsFirst=%v: event %d = (%g, %v, item %d at %g), want (%g, %v, item %d at %g)",
				arrivalsFirst, i, g.Time, g.Kind, g.Item.ID, g.Item.Size, w.Time, w.Kind, w.Item.ID, w.Item.Size)
		}
	}
}

// TestOrderMatchesStableSort holds Events to the stable sort it replaces on
// lists full of equal times, ±0, NaN times and duplicate IDs, under both
// tie rules, with the list shuffled and with it presorted by arrival (the
// run Events only checks).
func TestOrderMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, 3*rng.Intn(80))
		rng.Read(data)
		l := oracleList(data)
		sorted := slices.Clone(l)
		slices.SortStableFunc(sorted, func(a, b Item) int {
			if c := cmp.Compare(a.Arrival, b.Arrival); c != 0 {
				return c
			}
			return cmp.Compare(a.ID, b.ID)
		})
		for _, arrivalsFirst := range []bool{false, true} {
			checkOrder(t, l, arrivalsFirst)
			checkOrder(t, sorted, arrivalsFirst)
		}
	}
}

// FuzzOrder is TestOrderMatchesStableSort on fuzzed lists.
func FuzzOrder(f *testing.F) {
	f.Add([]byte{}, false)
	f.Add([]byte{3, 5, 1, 2, 3, 1, 2, 3, 0}, false)
	f.Add([]byte{0, 0, 2, 1, 2, 2, 2, 1, 2, 0, 3, 7}, true)
	f.Fuzz(func(t *testing.T, data []byte, arrivalsFirst bool) {
		checkOrder(t, oracleList(data), arrivalsFirst)
	})
}

// segment is one call of Segments' visit, its active positions copied.
type segment struct {
	lo, hi float64
	active []int
}

// rescanTimes returns the list's sorted distinct arrival and departure
// times (sort.Float64s puts NaNs first, and each NaN stays distinct).
func rescanTimes(l List) []float64 {
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

// rescanSegments is the reference sweep: at each distinct event time t,
// the positions of the items with Interval().Contains(t), found by a scan
// of the whole list in list order, hold up to the next distinct time.
// Adjacent intervals with the same positions are merged, so each is
// maximal.
func rescanSegments(l List) []segment {
	times := rescanTimes(l)
	var out []segment
	for i := 0; i+1 < len(times); i++ {
		var active []int
		for p, it := range l {
			if it.Interval().Contains(times[i]) {
				active = append(active, p)
			}
		}
		if len(active) == 0 {
			continue
		}
		if n := len(out); n > 0 && out[n-1].hi == times[i] && slices.Equal(out[n-1].active, active) {
			out[n-1].hi = times[i+1]
			continue
		}
		out = append(out, segment{times[i], times[i+1], active})
	}
	return out
}

// rescanPeak is the reference MaxConcurrentLoad: at each distinct event
// time, the sizes of the items that contain it, summed in list order.
func rescanPeak(l List) float64 {
	var peak float64
	for _, t := range rescanTimes(l) {
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

// segmentTimes are the times the segment oracle's lists draw from: equal
// times are common, and ±0, ±Inf and NaN are among them.
var segmentTimes = []float64{math.NaN(), math.Inf(-1), math.Copysign(0, -1), 0, 1, 1.5, 2, 3, math.Inf(1)}

// segmentList builds a list from byte triples (arrival, departure, size),
// each byte reduced into its range, so zero and negative lengths are
// common. The sizes are tenths, which float addition rounds differently
// in different orders.
func segmentList(data []byte) List {
	l := make(List, 0, len(data)/3)
	for i := 0; i+2 < len(data); i += 3 {
		l = append(l, Item{
			ID:        ID(len(l)),
			Size:      0.1 * float64(1+data[i+2]%9),
			Arrival:   segmentTimes[int(data[i])%len(segmentTimes)],
			Departure: segmentTimes[int(data[i+1])%len(segmentTimes)],
		})
	}
	return l
}

// checkSegments fails unless Segments visits exactly the reference's
// segments, in the same order, and MaxConcurrentLoad equals the
// reference's peak bit for bit.
func checkSegments(t *testing.T, l List) {
	t.Helper()
	var got []segment
	l.Segments(func(lo, hi float64, active []int) {
		got = append(got, segment{lo, hi, slices.Clone(active)})
	})
	want := rescanSegments(l)
	if len(got) != len(want) {
		t.Fatalf("%v: %d segments %v, want %d %v", l, len(got), got, len(want), want)
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.lo != w.lo || g.hi != w.hi || !slices.Equal(g.active, w.active) {
			t.Fatalf("%v: segment %d = %v, want %v", l, i, g, w)
		}
	}
	if g, w := l.MaxConcurrentLoad(), rescanPeak(l); math.Float64bits(g) != math.Float64bits(w) {
		t.Fatalf("%v: MaxConcurrentLoad = %v, want %v", l, g, w)
	}
}

// TestSegmentsMatchRescan holds Segments and MaxConcurrentLoad to a rescan
// of the whole list at every event time, on seeded lists full of tied
// times, zero and negative lengths, NaN and ±Inf times, shuffled and
// presorted by arrival.
func TestSegmentsMatchRescan(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 500; trial++ {
		data := make([]byte, 3*rng.Intn(60))
		rng.Read(data)
		l := segmentList(data)
		checkSegments(t, l)
		checkSegments(t, l.SortedByArrival())
	}
}

// FuzzSegments is TestSegmentsMatchRescan on fuzzed lists.
func FuzzSegments(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 4, 6, 3, 7, 4, 2, 5, 1})
	f.Add([]byte{0, 3, 2, 1, 8, 3, 3, 8, 8, 5, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSegments(t, segmentList(data))
	})
}
