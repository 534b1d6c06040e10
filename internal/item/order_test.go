package item

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refKey is a key of the reference sort: the time itself, and the list
// position of its item.
type refKey struct {
	time float64
	pos  int
}

// refSortedKeys is the key sort sortedKeys replaced, kept as its oracle:
// each run sorted by refCompare, a comparison that reads the items.
func (l List) refSortedKeys(activeOnly bool) (arr, dep []refKey) {
	for i, it := range l {
		if !activeOnly || it.Arrival < it.Departure {
			arr = append(arr, refKey{it.Arrival, i})
			dep = append(dep, refKey{it.Departure, i})
		}
	}
	byKey := func(a, b refKey) int { return refCompare(l, a, b) }
	slices.SortFunc(arr, byKey)
	slices.SortFunc(dep, byKey)
	return arr, dep
}

// refCompare orders two events of one kind: by time, then the item's
// arrival, then its ID, then its list position.
func refCompare(l List, a, b refKey) int {
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

// refSteps merges the reference runs by time and kind.
func (l List) refSteps(arrivalsFirst bool) []Step {
	arr, dep := l.refSortedKeys(false)
	var steps []Step
	for len(arr) > 0 || len(dep) > 0 {
		if len(dep) == 0 || len(arr) > 0 && arrivesFirst(arr[0].time, dep[0].time, arrivalsFirst) {
			steps = append(steps, Step{arr[0].pos, Arrive})
			arr = arr[1:]
		} else {
			steps = append(steps, Step{dep[0].pos, Depart})
			dep = dep[1:]
		}
	}
	return steps
}

// refSegments is Segments' sweep over the reference runs.
func (l List) refSegments() []segment {
	arr, dep := l.refSortedKeys(true)
	var out []segment
	var active []int
	for len(dep) > 0 {
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
			hi := dep[0].time
			if len(arr) > 0 && arr[0].time < hi {
				hi = arr[0].time
			}
			out = append(out, segment{t, hi, slices.Clone(active)})
		}
	}
	return out
}

// tieList draws n items whose times come from a pool of values — NaN,
// ±0, ±Inf and random finite times of both signs and many magnitudes —
// which holds a few values in two lists of three, so equal times are
// common within and across kinds, and 2n+1 in the third. IDs
// are a permutation, or drawn from a few values so duplicates are
// common. order is "shuffled", "sorted" (by arrival, then ID, as a
// generator emits) or "reversed".
func tieList(rng *rand.Rand, n int, dupIDs bool, order string) List {
	pool := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1)}
	finite := 1 + rng.Intn(40)
	if rng.Intn(3) == 0 {
		finite = 2*n + 1
	}
	for range finite {
		pool = append(pool, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(12)-4)))
	}
	time := func() float64 {
		if rng.Intn(10) == 0 {
			return pool[rng.Intn(len(pool))]
		}
		return pool[5+rng.Intn(len(pool)-5)]
	}
	ids := rng.Perm(n)
	l := make(List, n)
	for i := range l {
		id := ids[i]
		if dupIDs {
			id = rng.Intn(4)
		}
		l[i] = Item{ID: ID(id), Size: float64(i), Arrival: time(), Departure: time()}
	}
	switch order {
	case "sorted", "reversed":
		slices.SortStableFunc(l, func(a, b Item) int {
			if c := cmp.Compare(a.Arrival, b.Arrival); c != 0 {
				return c
			}
			return cmp.Compare(a.ID, b.ID)
		})
		if order == "reversed" {
			slices.Reverse(l)
		}
	}
	return l
}

// TestOrderMatchesReference holds the flat-key sort to the comparison
// sort it replaced: both runs of sortedKeys, under both filters, Steps
// under both tie rules, and Segments' visits, on tie-heavy
// lists with duplicate IDs, NaN, ±0 and ±Inf times, shuffled, sorted and
// reverse-sorted, at lengths on both sides of radixMin.
func TestOrderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	sizes := []int{0, 1, 2, 3, 17, 100, radixMin - 1, radixMin, radixMin + 1, 3 * radixMin}
	bits := math.Float64bits
	for _, n := range sizes {
		trials := 12
		if n >= radixMin {
			trials = 4
		}
		for trial := 0; trial < trials; trial++ {
			for _, order := range []string{"shuffled", "sorted", "reversed"} {
				l := tieList(rng, n, trial%2 == 1, order)
				for _, activeOnly := range []bool{false, true} {
					arr, dep := l.sortedKeys(activeOnly)
					wantArr, wantDep := l.refSortedKeys(activeOnly)
					for run, got := range [][]key{arr, dep} {
						want := [][]refKey{wantArr, wantDep}[run]
						if len(got) != len(want) {
							t.Fatalf("n=%d %s activeOnly=%v run %d: %d keys, want %d", n, order, activeOnly, run, len(got), len(want))
						}
						for i := range want {
							if got[i].pos != want[i].pos || got[i].ord != OrderKey(want[i].time) {
								t.Fatalf("n=%d %s activeOnly=%v run %d: key %d = %v, want %v", n, order, activeOnly, run, i, got[i], want[i])
							}
						}
					}
				}
				for _, arrivalsFirst := range []bool{false, true} {
					want := l.refSteps(arrivalsFirst)
					if got := l.Steps(arrivalsFirst); !slices.Equal(got, want) {
						t.Fatalf("n=%d %s arrivalsFirst=%v: Steps differ from the reference", n, order, arrivalsFirst)
					}
				}
				var got []segment
				l.Segments(func(lo, hi float64, active []int) {
					got = append(got, segment{lo, hi, slices.Clone(active)})
				})
				want := l.refSegments()
				if len(got) != len(want) {
					t.Fatalf("n=%d %s: %d segments, want %d", n, order, len(got), len(want))
				}
				for i := range want {
					g, w := got[i], want[i]
					if bits(g.lo) != bits(w.lo) || bits(g.hi) != bits(w.hi) || !slices.Equal(g.active, w.active) {
						t.Fatalf("n=%d %s: segment %d = %v, want %v", n, order, i, g, w)
					}
				}
			}
		}
	}
}

// TestTimeOrder holds OrderKey, the event sort's time key, to cmp.Compare
// on every pair of a set of times with all the float classes in it.
func TestTimeOrder(t *testing.T) {
	ts := []float64{math.NaN(), -math.NaN(), math.Inf(-1), -math.MaxFloat64, -1, -math.SmallestNonzeroFloat64,
		math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, 1, math.Nextafter(1, 2), math.MaxFloat64, math.Inf(1)}
	for _, a := range ts {
		for _, b := range ts {
			if got, want := cmp.Compare(OrderKey(a), OrderKey(b)), cmp.Compare(a, b); got != want {
				t.Errorf("OrderKey(%g) vs OrderKey(%g): %d, cmp.Compare says %d", a, b, got, want)
			}
		}
	}
}
