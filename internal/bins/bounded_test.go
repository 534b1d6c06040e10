package bins

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
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
// slice to its capacity, the map, the heap, and each built level list's
// spine and every block in it to their capacities — and returns the
// distinct bins found. The free list holds items, not bins: it checks
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
	for _, r := range g.location.slots {
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
		for _, tr := range ix.lists() {
			if tr == nil {
				continue
			}
			for _, blk := range tr.blocks[:cap(tr.blocks)] {
				for _, e := range blk[:cap(blk)] {
					add(e.bin)
				}
			}
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
// min-gap list, the total-gap list.
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
				for _, tr := range ix.lists() {
					if tr != nil && len(tr.keys) != len(ix.bins) {
						t.Fatalf("%s, keep-alive %g, event %d: %d filed keys for %d slots",
							query, keepAlive, i+1, len(tr.keys), len(ix.bins))
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
				// At d = 1 the total-gap query reads the min-gap list.
				want = [3]bool{false, c.dim == 1, c.dim == 2}
			}
			if built != want {
				t.Fatalf("%s, keep-alive %g: built gap tree, min-gap list, total-gap list = %v, want %v", query, keepAlive, built, want)
			}
			t.Logf("%s, keep-alive %g: %d events, %d bins opened, %d open, %d slots", query, keepAlive, n, g.NumOpened(), g.NumOpen(), len(ix.bins))
		}
	}
}

// TestBoundedAllocsOpenCycle pins what an opening costs: on an indexed
// First Fit ledger holding 64 resident bins, a cycle that opens a bin,
// fills it with four placements, drains it and so closes it allocates the
// Bin and nothing else — its level is a field of the Bin at d = 1, there
// is no level list, and its resident slice is one a closed bin left on
// the free list.
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
	if n > 1 {
		t.Fatalf("an open, 4 placements and a drain allocate %v times, want at most 1", n)
	}
	if g.NumOpened() != opened+1001 || g.NumOpen() != 64 {
		t.Fatalf("the cycles opened %d bins and left %d open, want 1001 and 64", g.NumOpened()-opened, g.NumOpen())
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBoundedResidentSlice checks that a bin's resident slice gives back
// capacity as the bin drains. Without that, a slice keeps the capacity of
// its bin's fullest moment, and the free list hands it to the next
// opening, so every slice ratchets toward the largest bin of the run.
func TestBoundedResidentSlice(t *testing.T) {
	g := NewLedger(1, 1)
	it := func(id item.ID) item.Item { return item.Item{ID: id, Size: 0.01, Departure: math.Inf(1)} }
	b := g.OpenNew(it(1), 0)
	for id := item.ID(2); id <= 64; id++ {
		g.PlaceIn(b, it(id), 0)
	}
	full := cap(b.resident)
	for id := item.ID(64); id > 1; id-- {
		g.Remove(id, 0)
	}
	if c := cap(b.resident); c > 4 {
		t.Fatalf("a bin drained from 64 items to 1 keeps a slice of capacity %d (%d when full), want at most 4", c, full)
	}
	g.Remove(1, 0)
	if c := cap(g.free[len(g.free)-1]); c > 4 {
		t.Fatalf("the closed bin left a slice of capacity %d on the free list, want at most 4", c)
	}
}

// mallocs runs f once to warm it up, then runs times more at GOMAXPROCS 1
// and returns every heap allocation those runs made. testing.AllocsPerRun
// divides the count by the runs in integers, so it reads one allocation
// per thousand runs as 0; a zero-allocation pin needs the count itself.
// The count is process-wide: a collection first settles what earlier
// tests' garbage left the runtime to do, which otherwise allocated inside
// the window in about one run in seven.
func mallocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestZeroAllocLevelChange pins the steady-state cost of the ledger's hot
// pair: placing an item into an already-open bin and removing it again,
// index on, allocates nothing — the tree leaf is rewritten in place, each
// level list moves the bin's entry within its block, and the map and the
// resident slice reuse their slots. At d = 2 every structure is built
// first (at d = 1 the total-gap query reads the min-gap list), so the pair
// maintains all of them.
func TestZeroAllocLevelChange(t *testing.T) {
	for _, dim := range []int{1, 2} {
		g := NewLedger(1, dim)
		g.EnableIndex()
		for i := 0; i < 64; i++ { // one full level-list block
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
			t.Fatalf("d=%d: built gap tree %v, min-gap list %v, total-gap list %v", dim, ix.tree != nil, ix.mins != nil, ix.sums != nil)
		}
		b := g.OpenBins()[17]
		it := item.Item{ID: 1000, Size: 0.25, Arrival: 1, Departure: math.Inf(1)}
		if dim == 2 {
			it.Sizes = []float64{0.25, 0.1}
		}
		if n := mallocs(1000, func() {
			g.PlaceIn(b, it, 1)
			g.Remove(it.ID, 1)
		}); n != 0 {
			t.Fatalf("d=%d: 1000 PlaceIn + Remove pairs on an open bin allocate %d times, want 0", dim, n)
		}
		if err := g.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestZeroAllocLevelChurn pins the level lists' steady state on a fleet
// of the benchmark's size: 3,400 open bins at d = 2 with every index
// structure built, where each op moves one random bin to random levels and
// refreshes the index. Keys cross block boundaries, so blocks split and
// empty. After a warm-up that lets the spine reach its working size, the
// churn allocates nothing: a split reuses a block an earlier delete
// emptied. (TestZeroAllocLevelChange's fleet is one block.)
func TestZeroAllocLevelChurn(t *testing.T) {
	const fleet = 3400
	rng := rand.New(rand.NewSource(1))
	g := NewLedger(1, 2)
	g.EnableIndex()
	for i := 0; i < fleet; i++ {
		g.OpenNew(item.Item{ID: item.ID(i + 1), Size: 0.1, Sizes: []float64{0.1, 0.1}, Departure: math.Inf(1)}, 0)
	}
	ix := g.Index()
	ix.FirstFitting(1)
	ix.MaxMinGapFitting([]float64{0, 0})
	ix.TightestFittingVec([]float64{0, 0})
	op := func() {
		b := g.open[rng.Intn(fleet)]
		b.level[0], b.level[1] = 0.1+0.8*rng.Float64(), 0.1+0.8*rng.Float64()
		ix.refresh(b)
	}
	for i := 0; i < 100_000; i++ {
		op()
	}
	n := mallocs(100_000, op)
	t.Logf("%d bins in %d min-gap and %d total-gap blocks", fleet, len(ix.mins.blocks), len(ix.sums.blocks))
	if n != 0 {
		t.Fatalf("100,000 refreshes on %d bins allocate %d times, want 0", fleet, n)
	}
	if len(ix.mins.blocks) < 2 || len(ix.sums.blocks) < 2 {
		t.Fatalf("the churn ran on %d and %d blocks, want several", len(ix.mins.blocks), len(ix.sums.blocks))
	}
	// The levels were set by hand, so the bins' own invariants no longer
	// hold; the index's must.
	if err := ix.checkCoherent(g.open); err != nil {
		t.Fatal(err)
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
		if n := mallocs(1000, func() {
			if ix.TightestFittingVec(sizes) != want {
				t.Fatal("the answer changed between identical queries")
			}
		}); n != 0 {
			t.Fatalf("1000 TightestFittingVec(%v) queries allocate %d times, want 0", sizes, n)
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
