package event

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dbp/internal/item"
)

func TestQueueOrdering(t *testing.T) {
	l := item.List{
		{ID: 1, Size: 0.5, Arrival: 1, Departure: 2},
		{ID: 2, Size: 0.5, Arrival: 0, Departure: 1},
	}
	want := []struct {
		time float64
		kind Kind
		id   item.ID
	}{{0, Arrive, 2}, {1, Depart, 2}, {1, Arrive, 1}, {2, Depart, 1}}
	evs := Order(l, false)
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
	var l item.List
	for _, i := range rand.New(rand.NewSource(1)).Perm(10) {
		l = append(l, item.Item{ID: item.ID(i), Size: 0.1, Arrival: 5, Departure: 6})
	}
	evs := Order(l, false)
	for i, e := range evs {
		if e.Item.ID != item.ID(i%10) {
			t.Fatalf("tie order broken: got %d at position %d", e.Item.ID, i)
		}
	}
}

func TestNewFromList(t *testing.T) {
	l := item.List{
		{ID: 2, Size: 0.5, Arrival: 0, Departure: 2},
		{ID: 1, Size: 0.5, Arrival: 0, Departure: 1},
	}
	evs := Order(l, false)
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
	l := item.List{
		{ID: 1, Size: 1, Arrival: 0, Departure: 1},
		{ID: 2, Size: 1, Arrival: 1, Departure: 2},
	}
	evs := Order(l, false) // evs[0]: arrive 1 at t=0
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
func randomTieList(rng *rand.Rand, n int) item.List {
	l := make(item.List, n)
	for i := range l {
		a := float64(rng.Intn(10))
		l[i] = item.Item{ID: item.ID(i), Size: 0.1, Arrival: a, Departure: a + float64(1+rng.Intn(5))}
	}
	rng.Shuffle(n, func(i, j int) { l[i], l[j] = l[j], l[i] })
	return l
}

func TestQueueRandomizedMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		l := randomTieList(rng, 1+rng.Intn(200))
		evs := Order(l, false)
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

// TestOrderMatchesExplicitKey holds Order to the rule it documents: on
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
			got := Order(l, arrivalsFirst)
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
	l := item.List{
		{ID: 1, Size: 1, Arrival: 0, Departure: 1},
		{ID: 2, Size: 1, Arrival: 1, Departure: 2},
	}
	evs := Order(l, true) // evs[0]: arrive 1 at t=0
	if e := evs[1]; e.Kind != Arrive || e.Item.ID != 2 {
		t.Fatalf("arrivals-first: expected arrival of 2 before departure of 1, got %v of %d", e.Kind, e.Item.ID)
	}
	if e := evs[2]; e.Kind != Depart || e.Item.ID != 1 {
		t.Fatalf("expected departure of 1, got %v of %d", e.Kind, e.Item.ID)
	}
}

// stableOrder is the reference Order: every item's two events, listed item
// by item, in one stable sort by stableCompare. Order must equal it bit for
// bit.
func stableOrder(l item.List, arrivalsFirst bool) []Event {
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
func oracleList(data []byte) item.List {
	l := make(item.List, 0, len(data)/3)
	for i := 0; i+2 < len(data); i += 3 {
		l = append(l, item.Item{
			ID:        item.ID(data[i+2] % 8),
			Size:      float64(len(l)),
			Arrival:   oracleTimes[int(data[i])%len(oracleTimes)],
			Departure: oracleTimes[int(data[i+1])%len(oracleTimes)],
		})
	}
	return l
}

// checkOrder fails unless Order and stableOrder agree bit for bit on l.
func checkOrder(t *testing.T, l item.List, arrivalsFirst bool) {
	t.Helper()
	bits := math.Float64bits
	got, want := Order(l, arrivalsFirst), stableOrder(l, arrivalsFirst)
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

// TestOrderMatchesStableSort holds Order to the stable sort it replaces on
// lists full of equal times, ±0, NaN times and duplicate IDs, under both
// tie rules, with the list shuffled and with it presorted by arrival (the
// run Order only checks).
func TestOrderMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, 3*rng.Intn(80))
		rng.Read(data)
		l := oracleList(data)
		sorted := slices.Clone(l)
		slices.SortStableFunc(sorted, func(a, b item.Item) int {
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
