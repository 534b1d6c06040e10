package bins

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"dbp/internal/item"
)

// The ledger holds live state only (ROADMAP item 1, Step B). These tests
// pin the three ways that shows from inside the package: what a long
// replay leaves reachable, what a level change allocates, and how far a
// bin's running level drifts from the sum of what it holds.

// zipfianEvents is a stand-in for the benchmark's engine_soak script
// (internal/workload imports this package's importers, so it cannot be
// used here): Poisson arrivals at the given rate, durations uniform on
// [1, 10), sizes on a 16-class geometric grid from 0.05 to 0.95 with class
// rank r drawn with probability ~ r^-1.1. It returns the items and their
// arrive/depart events in time order (departures first on ties), cut to n.
func zipfianEvents(n int, rate float64, seed int64) (item.List, []zipfianEvent) {
	rng := rand.New(rand.NewSource(seed))
	const classes = 16
	cum := make([]float64, classes)
	total := 0.0
	for r := range cum {
		total += math.Pow(float64(r+1), -1.1)
		cum[r] = total
	}
	l := make(item.List, n*6/10)
	evs := make([]zipfianEvent, 0, 2*len(l))
	t := 0.0
	for i := range l {
		t += rng.ExpFloat64() / rate
		r := sort.SearchFloat64s(cum, rng.Float64()*total)
		l[i] = item.Item{
			ID:        item.ID(i + 1),
			Size:      0.05 * math.Pow(0.95/0.05, float64(r)/(classes-1)),
			Arrival:   t,
			Departure: t + 1 + 9*rng.Float64(),
		}
		evs = append(evs, zipfianEvent{t: l[i].Arrival, job: i}, zipfianEvent{t: l[i].Departure, job: i, depart: true})
	}
	sort.SliceStable(evs, func(a, b int) bool {
		if evs[a].t != evs[b].t {
			return evs[a].t < evs[b].t
		}
		return evs[a].depart && !evs[b].depart
	})
	return l, evs[:n]
}

type zipfianEvent struct {
	t      float64
	job    int
	depart bool
}

// reachableBins walks everything the ledger and its index point at — each
// slice to its capacity, the map, the heap, each built treap and its walk
// stack — and returns the distinct bins found. The free list holds items,
// not bins: it checks
// that every slice there, and every open bin's resident slice past its
// length, holds only zero items, so a departed job's demand vector is not
// kept alive either.
func reachableBins(t *testing.T, g *Ledger) map[*Bin]bool {
	t.Helper()
	seen := make(map[*Bin]bool)
	add := func(b *Bin) {
		if b != nil {
			seen[b] = true
		}
	}
	zeroed := func(where string, s []item.Item) {
		for i, it := range s {
			if it.ID != 0 || it.Sizes != nil {
				t.Fatalf("%s keeps item %d at position %d", where, it.ID, i)
			}
		}
	}
	for _, b := range g.open[:cap(g.open)] {
		add(b)
		if b != nil {
			zeroed("a resident slice past its length", b.resident[len(b.resident):cap(b.resident)])
		}
	}
	for _, r := range g.location {
		add(r.bin)
	}
	for _, s := range g.free[:cap(g.free)] {
		zeroed("the free list", s[:cap(s)])
	}
	for _, e := range g.expiries[:cap(g.expiries)] {
		add(e.bin)
	}
	for _, e := range g.due[:cap(g.due)] {
		add(e.bin)
	}
	if ix := g.index; ix != nil {
		for _, b := range ix.bins[:cap(ix.bins)] {
			add(b)
		}
		var walk func(*levelNode)
		walk = func(n *levelNode) {
			if n != nil {
				add(n.bin)
				walk(n.l)
				walk(n.r)
			}
		}
		for _, tr := range ix.treaps() {
			if tr == nil {
				continue
			}
			for _, n := range tr.nodes[:cap(tr.nodes)] {
				if n != nil {
					add(n.bin)
				}
			}
			for _, n := range tr.walk[:cap(tr.walk)] {
				walk(n)
			}
			walk(tr.root)
		}
	}
	return seen
}

// TestBoundedLedgerState replays 200k zipfian events (and the same script
// with a keep-alive) through an indexed ledger the way the benchmark's
// bare-ledger rung does, and checks every 10k events that the index's
// slots, the built structures and the bins still reachable are bounded by
// the open fleet — not by the thousands of bins opened by then — and that
// no closed bin is reachable at all. It replays placing by First Fit
// (FirstFitting), by Best Fit (TightestFittingVec at d = 1) and, at d = 2
// with a keep-alive, by vector Best Fit (TightestFittingVec), and checks
// that each built only the structure its query reads: the gap tree, the
// min-gap treap, the total-gap treap.
func TestBoundedLedgerState(t *testing.T) {
	// Not shortened under -short: Best Fit keeps its bins open so long
	// that a shorter replay does not outlive its fleet.
	const n = 200_000
	l, evs := zipfianEvents(n, 200, 1)
	for _, c := range []struct {
		query      string
		dim        int
		keepAlives []float64
	}{
		{"FirstFitting", 1, []float64{0, 0.05}},
		{"TightestFittingVec", 1, []float64{0, 0.05}},
		{"TightestFittingVec", 2, []float64{0.05}},
	} {
		for _, keepAlive := range c.keepAlives {
			query := fmt.Sprintf("%s d=%d", c.query, c.dim)
			g := NewLedgerKeepAlive(1, c.dim, keepAlive)
			g.EnableIndex()
			ix := g.Index()
			fit := func(it item.Item) *Bin { return ix.FirstFitting(it.Size - Eps) }
			if c.query == "TightestFittingVec" {
				fit = func(it item.Item) *Bin { return ix.TightestFittingVec(it.SizeVec()) }
			}
			for i, e := range evs {
				g.CloseExpired(e.t)
				it := l[e.job]
				if c.dim == 2 {
					// The second component is another job's size: the same
					// zipfian marginal, paired deterministically.
					it.Sizes = []float64{it.Size, l[(e.job+1)%len(l)].Size}
					it.Size = max(it.Sizes[0], it.Sizes[1])
				}
				if e.depart {
					g.Remove(it.ID, e.t)
				} else if b := fit(it); b != nil {
					g.PlaceIn(b, it, e.t)
				} else {
					g.OpenNew(it, e.t)
				}
				if (i+1)%10_000 != 0 {
					continue
				}
				open := g.NumOpen()
				if len(ix.bins) > 2*open {
					t.Fatalf("%s, keep-alive %g, event %d: %d slots for %d open bins (%d opened)",
						query, keepAlive, i+1, len(ix.bins), open, g.NumOpened())
				}
				if tr := ix.tree; tr != nil && (tr.n != len(ix.bins) || tr.size >= 2*max(tr.n, 1)) {
					t.Fatalf("%s, keep-alive %g, event %d: %d of %d leaves in use for %d slots",
						query, keepAlive, i+1, tr.n, tr.size, len(ix.bins))
				}
				for _, tr := range ix.treaps() {
					if tr != nil && len(tr.nodes) != len(ix.bins) {
						t.Fatalf("%s, keep-alive %g, event %d: %d treap node slots for %d slots",
							query, keepAlive, i+1, len(tr.nodes), len(ix.bins))
					}
				}
				if len(g.free) > g.MaxConcurrentOpen() {
					t.Fatalf("%s, keep-alive %g, event %d: %d free resident slices, peak fleet %d",
						query, keepAlive, i+1, len(g.free), g.MaxConcurrentOpen())
				}
				reach := reachableBins(t, g)
				if len(reach) != open {
					t.Fatalf("%s, keep-alive %g, event %d: %d bins reachable, %d open", query, keepAlive, i+1, len(reach), open)
				}
				for b := range reach {
					if !b.IsOpen() {
						t.Fatalf("%s, keep-alive %g, event %d: closed bin %v still reachable", query, keepAlive, i+1, b)
					}
				}
				if err := g.CheckInvariants(); err != nil {
					t.Fatalf("%s, keep-alive %g, event %d: %v", query, keepAlive, i+1, err)
				}
			}
			if g.NumOpened() < 3*g.NumOpen() {
				t.Fatalf("%s, keep-alive %g: only %d bins opened for %d open — the replay did not outlive its fleet", query, keepAlive, g.NumOpened(), g.NumOpen())
			}
			built := [3]bool{ix.tree != nil, ix.mins != nil, ix.sums != nil}
			want := [3]bool{true, false, false} // FirstFitting
			if c.query == "TightestFittingVec" {
				// At d = 1 the total-gap query reads the min-gap treap.
				want = [3]bool{false, c.dim == 1, c.dim == 2}
			}
			if built != want {
				t.Fatalf("%s, keep-alive %g: built gap tree, min-gap treap, total-gap treap = %v, want %v", query, keepAlive, built, want)
			}
			t.Logf("%s, keep-alive %g: %d events, %d bins opened, %d open, %d slots", query, keepAlive, n, g.NumOpened(), g.NumOpen(), len(ix.bins))
		}
	}
}

// TestBoundedAllocsOpenCycle pins what an opening costs: on an indexed
// First Fit ledger holding 64 resident bins, a cycle that opens a bin,
// fills it with four placements, drains it and so closes it allocates the
// Bin and its level slice and nothing else — no treap node, and a
// resident slice a closed bin left on the free list.
func TestBoundedAllocsOpenCycle(t *testing.T) {
	g := NewLedger(1, 1)
	g.EnableIndex()
	ix := g.Index()
	arrive := func(it item.Item) {
		if b := ix.FirstFitting(it.Size - Eps); b != nil {
			g.PlaceIn(b, it, 0)
		} else {
			g.OpenNew(it, 0)
		}
	}
	for i := 0; i < 64; i++ {
		arrive(item.Item{ID: item.ID(i + 1), Size: 0.9, Departure: math.Inf(1)})
	}
	opened := g.NumOpened()
	n := testing.AllocsPerRun(1000, func() {
		for id := item.ID(1000); id < 1004; id++ {
			arrive(item.Item{ID: id, Size: 0.2, Departure: math.Inf(1)})
		}
		for id := item.ID(1000); id < 1004; id++ {
			g.Remove(id, 0)
		}
	})
	t.Logf("an open, 4 placements and a drain: %v allocations", n)
	if n > 2 {
		t.Fatalf("an open, 4 placements and a drain allocate %v times, want at most 2", n)
	}
	if g.NumOpened() != opened+1001 || g.NumOpen() != 64 {
		t.Fatalf("the cycles opened %d bins and left %d open, want 1001 and 64", g.NumOpened()-opened, g.NumOpen())
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestZeroAllocLevelChange pins the steady-state cost of the ledger's hot
// pair: placing an item into an already-open bin and removing it again,
// index on, allocates nothing — the tree leaf is rewritten in place, each
// treap node is detached and re-filed, and the map and the resident slice
// reuse their slots. At d = 2 every structure is built first (at d = 1 the
// total-gap query reads the min-gap treap), so the pair maintains all of
// them.
func TestZeroAllocLevelChange(t *testing.T) {
	for _, dim := range []int{1, 2} {
		g := NewLedger(1, dim)
		g.EnableIndex()
		for i := 0; i < 64; i++ { // a fleet deep enough for the treaps to rotate
			it := item.Item{ID: item.ID(i + 1), Size: 0.3 + 0.005*float64(i), Arrival: 0, Departure: math.Inf(1)}
			if dim == 2 {
				it.Sizes = []float64{it.Size, 0.6 - 0.004*float64(i)}
			}
			g.OpenNew(it, 0)
		}
		// Build every structure, so that the pair below maintains them all.
		ix := g.Index()
		ix.FirstFitting(1)
		ix.MaxMinGapFitting(make([]float64, dim))
		ix.TightestFittingVec(make([]float64, dim))
		if ix.tree == nil || ix.mins == nil || (ix.sums != nil) != (dim == 2) {
			t.Fatalf("d=%d: built gap tree %v, min-gap treap %v, total-gap treap %v", dim, ix.tree != nil, ix.mins != nil, ix.sums != nil)
		}
		b := g.OpenBins()[17]
		it := item.Item{ID: 1000, Size: 0.25, Arrival: 1, Departure: math.Inf(1)}
		if dim == 2 {
			it.Sizes = []float64{0.25, 0.1}
		}
		if n := testing.AllocsPerRun(1000, func() {
			g.PlaceIn(b, it, 1)
			g.Remove(it.ID, 1)
		}); n != 0 {
			t.Fatalf("d=%d: PlaceIn + Remove on an open bin allocates %v times, want 0", dim, n)
		}
		if err := g.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestZeroAllocTightestFittingVec pins the vector Best Fit query at 0
// allocations on a d = 2 fleet of 256 bins, for a demand that fits far up
// the walk and for one that fits nothing: the walk's stack is reused and
// nothing escapes.
func TestZeroAllocTightestFittingVec(t *testing.T) {
	g := NewLedger(1, 2)
	g.EnableIndex()
	for i := 0; i < 256; i++ {
		a := 0.05 + 0.9*float64(i%16)/16
		g.OpenNew(item.Item{ID: item.ID(i + 1), Size: max(a, 0.95-a), Sizes: []float64{a, 0.95 - a}, Departure: math.Inf(1)}, 0)
	}
	ix := g.Index()
	for _, sizes := range [][]float64{{0.5, 0.5}, {0.2, 0.2}, {0.95, 0.95}} {
		want := ix.TightestFittingVec(sizes)
		if n := testing.AllocsPerRun(1000, func() {
			if ix.TightestFittingVec(sizes) != want {
				t.Fatal("the answer changed between identical queries")
			}
		}); n != 0 {
			t.Fatalf("TightestFittingVec(%v) allocates %v times, want 0", sizes, n)
		}
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestLevelDriftOverTenMillionCycles is the float-drift pin: one bin that
// never empties holds six jobs with sizes in [0.01, 0.15) while 10^7
// place/remove cycles replace them one at a time, and its running level —
// an accumulator that is never reset — must stay within Eps/100 of the sum
// of what it currently holds (re-added from scratch each time, so exact to
// a few ULPs). A live ledger's low-index bins live for the daemon's whole
// life, so this is the error budget the admission tolerance Eps rests on.
func TestLevelDriftOverTenMillionCycles(t *testing.T) {
	cycles := 10_000_000
	if testing.Short() {
		cycles = 100_000
	}
	rng := rand.New(rand.NewSource(1))
	size := func() float64 { return 0.01 + 0.14*rng.Float64() }
	g := NewLedger(1, 1)
	g.EnableIndex()
	var resident [6]item.Item
	next := item.ID(1)
	var b *Bin
	for i := range resident {
		resident[i] = item.Item{ID: next, Size: size(), Departure: math.Inf(1)}
		next++
		if b == nil {
			b = g.OpenNew(resident[i], 0)
		} else {
			g.PlaceIn(b, resident[i], 0)
		}
	}
	worst := 0.0
	for c := 0; c < cycles; c++ {
		k := rng.Intn(len(resident))
		g.Remove(resident[k].ID, 0)
		resident[k] = item.Item{ID: next, Size: size(), Departure: math.Inf(1)}
		next++
		g.PlaceIn(b, resident[k], 0)
		exact := 0.0
		for _, it := range resident {
			exact += it.Size
		}
		worst = max(worst, math.Abs(b.Level()-exact))
	}
	t.Logf("worst |level - exact| over %d cycles: %.3g", cycles, worst)
	if worst > Eps/100 {
		t.Fatalf("level drifted %.3g from the sum of the resident sizes over %d cycles, budget %g", worst, cycles, Eps/100)
	}
	if g.NumOpened() != 1 {
		t.Fatalf("the ledger opened %d bins, want 1", g.NumOpened())
	}
}
