package bins

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"dbp/internal/item"
)

// linearFirst is the O(B) reference of the ladder's FirstFitting(need):
// the first bin whose dimension-0 gap reaches need, compared exactly.
func linearFirst(open []*Bin, need float64) *Bin {
	for _, b := range open {
		if b.Gap() >= need {
			return b
		}
	}
	return nil
}

// checkQueries checks FirstFitting(need) against linearFirst and, on a
// scalar fleet, every demand-vector query on the demand {need} against
// its linear reference.
func checkQueries(t *testing.T, g *Ledger, need float64) {
	t.Helper()
	if got, ref := g.Index().FirstFitting(need), linearFirst(g.OpenBins(), need); got != ref {
		t.Fatalf("FirstFitting(%g): index %v, linear %v (open %v)", need, binIdx(got), binIdx(ref), g.OpenBins())
	}
	if g.Dim() == 1 {
		checkVecQueries(t, g, []float64{need})
	}
}

func binIdx(b *Bin) int {
	if b == nil {
		return -1
	}
	return b.Index
}

// TestIndexMatchesLinearScans drives a ledger through a random arrive/
// depart mix (with and without keep-alive) and checks after every event
// that each indexed query agrees with its linear reference and that the
// index is structurally coherent.
func TestIndexMatchesLinearScans(t *testing.T) {
	for _, keepAlive := range []float64{0, 1.5} {
		rng := rand.New(rand.NewSource(7))
		g := NewLedgerKeepAlive(1, 1, keepAlive)
		g.EnableIndex()
		var live []item.Item
		now := 0.0
		nextID := item.ID(1)
		for step := 0; step < 3000; step++ {
			now += rng.Float64() * 0.2
			g.CloseExpired(now)
			if len(live) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(live))
				g.Remove(live[i].ID, now)
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			} else {
				size := 0.05 + 0.9*rng.Float64()
				it := item.Item{ID: nextID, Size: size, Arrival: now, Departure: math.Inf(1)}
				nextID++
				need := size - Eps
				if b := g.Index().FirstFitting(need); b != nil {
					g.PlaceIn(b, it, now)
				} else {
					g.OpenNew(it, now)
				}
				live = append(live, it)
			}
			if err := g.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			checkQueries(t, g, rng.Float64())
			// Demands within 2*Eps of an open bin's gap: the d = 1 probe of
			// the positional queries misses at some and falls back.
			if open := g.OpenBins(); len(open) > 0 {
				gap := open[rng.Intn(len(open))].Gap()
				for _, delta := range []float64{-2 * Eps, -Eps, -Eps / 2, 0, Eps / 2, Eps, 1.5 * Eps, 2 * Eps} {
					checkVecQueries(t, g, []float64{gap + delta})
				}
			}
		}
	}
}

// TestIndexQueriesHandExample pins the query semantics on a small fixed
// fleet: gaps 0.5, 0.2, 0.5, 0.8 for bins 0..3.
func TestIndexQueriesHandExample(t *testing.T) {
	g := NewLedger(1, 1)
	g.EnableIndex()
	for i, size := range []float64{0.5, 0.8, 0.5, 0.2} {
		g.OpenNew(item.Item{ID: item.ID(i + 1), Size: size, Arrival: 0, Departure: math.Inf(1)}, 0)
	}
	ix := g.Index()
	cases := []struct {
		name string
		got  *Bin
		want int
	}{
		{"FirstFitting(0.3)", ix.FirstFitting(0.3), 0},
		{"FirstFitting(0.6)", ix.FirstFitting(0.6), 3},
		{"LastFittingVec(0.3)", ix.LastFittingVec([]float64{0.3}), 3},
		{"LastFittingVec(0.5)", ix.LastFittingVec([]float64{0.5}), 3},
		{"TightestFittingVec(0.1)", ix.TightestFittingVec([]float64{0.1}), 1},
		{"TightestFittingVec(0.4)", ix.TightestFittingVec([]float64{0.4}), 0},
		{"MaxMinGapFitting(0.1)", ix.MaxMinGapFitting([]float64{0.1}), 3},
		{"SecondEmptiestFitting(0.1)", ix.SecondEmptiestFitting([]float64{0.1}), 0},
		{"SecondEmptiestFitting(0.6)", ix.SecondEmptiestFitting([]float64{0.6}), -1},
	}
	for _, c := range cases {
		if binIdx(c.got) != c.want {
			t.Errorf("%s = bin %d, want %d", c.name, binIdx(c.got), c.want)
		}
	}
	// Equal-gap group: with bin 3 emptiest, the runner-up is the lowest-
	// indexed member of the gap-0.5 group {0, 2}.
	if b := ix.SecondEmptiestFitting([]float64{0.45}); binIdx(b) != 0 {
		t.Errorf("SecondEmptiestFitting(0.45) = bin %d, want 0", binIdx(b))
	}
}

func TestEnableIndexLatePanics(t *testing.T) {
	g := NewLedger(1, 1)
	g.OpenNew(item.Item{ID: 1, Size: 0.5, Arrival: 0, Departure: math.Inf(1)}, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("EnableIndex after opening bins must panic")
		}
	}()
	g.EnableIndex()
}

// TestIndexIllDimensionedDemand pins the vector queries on a demand whose
// length is not the fleet's dimension: the linear reference visits no bin
// (FitsDemand rejects the length), so the index must visit none either —
// and must neither descend the tree with a threshold vector of the wrong
// stride nor walk the treap, nor build either structure to answer. A
// well-dimensioned demand on the same fleet finds the bin.
func TestIndexIllDimensionedDemand(t *testing.T) {
	demand := func(n int) []float64 {
		v := make([]float64, n)
		for d := range v {
			v[d] = 0.1
		}
		return v
	}
	for _, dim := range []int{1, 2} {
		for _, n := range []int{dim - 1, dim, dim + 1} {
			g := NewLedger(1, dim)
			g.EnableIndex()
			it := item.Item{ID: 1, Size: 0.1, Arrival: 0, Departure: math.Inf(1)}
			if dim > 1 {
				it.Sizes = demand(dim)
			}
			g.OpenNew(it, 0)
			ix := g.Index()
			sizes := demand(n)
			var linear []*Bin
			for _, b := range g.OpenBins() {
				if b.FitsDemand(sizes) {
					linear = append(linear, b)
				}
			}
			if want := n == dim; (len(linear) == 1) != want {
				t.Fatalf("dim %d, demand of length %d: linear scan found %d bins", dim, n, len(linear))
			}
			var ref *Bin
			if len(linear) > 0 {
				ref = linear[0]
			}
			// MaxMinGapFitting alone reads the min-gap treap.
			if got := ix.MaxMinGapFitting(sizes); got != ref {
				t.Errorf("dim %d, demand of length %d: MaxMinGapFitting = bin %d, linear scan %d", dim, n, binIdx(got), binIdx(ref))
			}
			if built := ix.mins != nil; built != (n == dim) || ix.tree != nil || ix.sums != nil {
				t.Errorf("dim %d, demand of length %d: after MaxMinGapFitting the min-gap treap is built %v, the gap tree %v, the total-gap treap %v",
					dim, n, built, ix.tree != nil, ix.sums != nil)
			}
			// TightestFittingVec reads the total-gap treap (at d = 1, the
			// min-gap one).
			if got := ix.TightestFittingVec(sizes); got != ref {
				t.Errorf("dim %d, demand of length %d: TightestFittingVec = bin %d, linear scan %d", dim, n, binIdx(got), binIdx(ref))
			}
			if built := ix.sums != nil; built != (n == dim && dim > 1) || ix.tree != nil {
				t.Errorf("dim %d, demand of length %d: after TightestFittingVec the total-gap treap is built %v, the gap tree %v",
					dim, n, built, ix.tree != nil)
			}
			for name, got := range map[string]*Bin{
				"FirstFittingVec": ix.FirstFittingVec(sizes),
				"LastFittingVec":  ix.LastFittingVec(sizes),
			} {
				if got != ref {
					t.Errorf("dim %d, demand of length %d: %s = bin %d, linear scan %d", dim, n, name, binIdx(got), binIdx(ref))
				}
			}
			if built := ix.tree != nil; built != (n == dim) {
				t.Errorf("dim %d, demand of length %d: after the positional queries the gap tree is built %v", dim, n, built)
			}
			if err := g.CheckInvariants(); err != nil {
				t.Fatalf("dim %d, demand of length %d: %v", dim, n, err)
			}
		}
	}
}

// TestIndexNaNDemandSkipsClosedSlots pins the one demand no comparison
// prunes: a NaN component passes every mayFit test, so the descent reaches
// the -Inf leaves of closed slots, and it must find nothing there — the
// answer is the first (last) open bin, as in the linear scan (FitsDemand
// admits NaN at every open bin; packing's checkDemand refuses it long
// before). The closed slots sit at both ends, where each descent starts.
func TestIndexNaNDemandSkipsClosedSlots(t *testing.T) {
	g := NewLedger(1, 1)
	g.EnableIndex()
	for i := 1; i <= 9; i++ {
		g.OpenNew(item.Item{ID: item.ID(i), Size: 0.5, Arrival: 0, Departure: math.Inf(1)}, 0)
	}
	for _, id := range []item.ID{1, 2, 8, 9} { // four closed slots among nine: not yet compacted
		g.Remove(id, 1)
	}
	ix, nan := g.Index(), []float64{math.NaN()}
	if got := ix.FirstFittingVec(nan); binIdx(got) != 2 {
		t.Fatalf("FirstFittingVec(NaN) = bin %d, want the first open bin 2", binIdx(got))
	}
	if got := ix.LastFittingVec(nan); binIdx(got) != 6 {
		t.Fatalf("LastFittingVec(NaN) = bin %d, want the last open bin 6", binIdx(got))
	}
	if closed := len(ix.bins) - ix.live; closed != 4 {
		t.Fatalf("the index holds %d closed slots, want 4 (compacted too early)", closed)
	}
}

// checkVecQueries checks the five demand-vector queries, whose linear
// references all filter the open list by FitsDemand.
func checkVecQueries(t *testing.T, g *Ledger, sizes []float64) {
	t.Helper()
	ix := g.Index()
	var first, last, maxMin, second, tightest *Bin
	for _, b := range g.OpenBins() {
		if !b.FitsDemand(sizes) {
			continue
		}
		if first == nil {
			first = b
		}
		last = b
		switch {
		case maxMin == nil:
			maxMin = b
		case b.MinGap() > maxMin.MinGap():
			second, maxMin = maxMin, b
		case second == nil || b.MinGap() > second.MinGap():
			second = b
		}
		if tightest == nil || b.TotalGap() < tightest.TotalGap() {
			tightest = b
		}
	}
	for name, c := range map[string][2]*Bin{
		"FirstFittingVec":       {ix.FirstFittingVec(sizes), first},
		"LastFittingVec":        {ix.LastFittingVec(sizes), last},
		"MaxMinGapFitting":      {ix.MaxMinGapFitting(sizes), maxMin},
		"SecondEmptiestFitting": {ix.SecondEmptiestFitting(sizes), second},
		"TightestFittingVec":    {ix.TightestFittingVec(sizes), tightest},
	} {
		if c[0] != c[1] {
			t.Fatalf("%s(%v): index %d, linear %d", name, sizes, binIdx(c[0]), binIdx(c[1]))
		}
	}
}

// restoreCopy rebuilds the ledger's live state through RestoreLedger, as a
// durable snapshot would: the result's index has built nothing.
func restoreCopy(t *testing.T, g *Ledger) *Ledger {
	t.Helper()
	open := make([]BinRestore, len(g.open))
	for i, b := range g.open {
		r := BinRestore{Index: b.Index, OpenedAt: b.OpenedAt(), Lingering: b.Lingering(), Levels: b.LevelVec()}
		if r.Lingering {
			r.EmptySince = b.EmptySince()
		}
		for _, it := range b.resident {
			r.Jobs = append(r.Jobs, RestoredJob{ID: it.ID, Size: it.Size, Sizes: slices.Clone(it.Sizes), Arrival: it.Arrival})
		}
		open[i] = r
	}
	h, err := RestoreLedger(g.capacity, g.dim, g.keepAlive, true, g.opened, g.maxConcurrentOpen, g.closedUsage, open)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestIndexBuiltOnFirstQuery replays a random fleet at d = 1 and d = 2
// that no query reads — through a compaction of the index's slots and a
// RestoreLedger — so that no structure exists; then it asks each of the
// six queries for the first time and compares the answers with the
// linear scans, and keeps replaying with every query and the invariant
// check after every event. A structure built late must answer exactly as
// one maintained from the first event.
func TestIndexBuiltOnFirstQuery(t *testing.T) {
	for _, dim := range []int{1, 2} {
		rng := rand.New(rand.NewSource(int64(dim)))
		g := NewLedgerKeepAlive(1, dim, 0.5)
		g.EnableIndex()
		var live []item.ID
		now, next := 0.0, item.ID(1)
		demand := func() []float64 {
			v := make([]float64, dim)
			for d := range v {
				v[d] = 0.05 + 0.45*rng.Float64()
			}
			return v
		}
		// event departs a random resident job with probability pDepart, and
		// otherwise places a new one by a linear First Fit scan, which reads
		// no structure of the index.
		event := func(pDepart float64) {
			now += 0.05 * rng.Float64()
			g.CloseExpired(now)
			if len(live) > 0 && rng.Float64() < pDepart {
				k := rng.Intn(len(live))
				g.Remove(live[k], now)
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
			} else {
				it := item.Item{ID: next, Sizes: demand(), Arrival: now, Departure: math.Inf(1)}
				it.Size = slices.Max(it.Sizes)
				if dim == 1 {
					it.Sizes = nil
				}
				next++
				live = append(live, it.ID)
				if b := linearFirstFits(g.OpenBins(), it); b != nil {
					g.PlaceIn(b, it, now)
				} else {
					g.OpenNew(it, now)
				}
			}
			if err := g.CheckInvariants(); err != nil {
				t.Fatalf("dim %d, job %d: %v", dim, next, err)
			}
		}
		unbuilt := func(when string) {
			if ix := g.Index(); ix.tree != nil || ix.mins != nil || ix.sums != nil {
				t.Fatalf("dim %d, %s: a structure was built with no query", dim, when)
			}
		}
		for i := 0; i < 1500; i++ {
			event(0.3)
		}
		for i := 0; i < 1000; i++ {
			event(0.8) // the fleet shrinks, and the slots compact
		}
		if ix := g.Index(); len(ix.bins) >= g.NumOpened() {
			t.Fatalf("dim %d: %d slots for %d bins ever opened — no compaction crossed", dim, len(ix.bins), g.NumOpened())
		}
		unbuilt("before the restore")
		g = restoreCopy(t, g)
		unbuilt("after the restore")
		for i := 0; i < 300; i++ {
			event(0.3)
		}
		unbuilt("after the replay")
		if g.NumOpen() < 10 {
			t.Fatalf("dim %d: only %d bins open at the first query", dim, g.NumOpen())
		}

		// The first query of each kind builds its structure alone.
		need := 0.3
		if got, ref := g.Index().FirstFitting(need), linearFirst(g.OpenBins(), need); got != ref {
			t.Fatalf("dim %d: first FirstFitting(%g) = bin %d, linear %d", dim, need, binIdx(got), binIdx(ref))
		}
		if ix := g.Index(); ix.tree == nil || ix.mins != nil || ix.sums != nil {
			t.Fatalf("dim %d: FirstFitting built the gap tree %v, the treaps %v and %v", dim, ix.tree != nil, ix.mins != nil, ix.sums != nil)
		}
		for i := 0; i < 500; i++ {
			checkQueries(t, g, rng.Float64())
			checkVecQueries(t, g, demand())
			if err := g.CheckInvariants(); err != nil {
				t.Fatalf("dim %d, after the queries: %v", dim, err)
			}
			event(0.45)
		}
	}
}

// linearFirstFits is the linear First Fit for an item of any dimension.
func linearFirstFits(open []*Bin, it item.Item) *Bin {
	for _, b := range open {
		if b.Fits(it) {
			return b
		}
	}
	return nil
}

// TestTightestFittingVecMatchesScan replays random fleets at d ∈ {1, 2, 3},
// keep-alive off and on, placing every arrival by TightestFittingVec, and
// after every event compares the query with a brute-force scan (the
// fitting bin of least TotalGap, ties toward the lowest index) for a
// random demand and for demands within ±2·Eps of an open bin's own gaps.
// Sizes are multiples of 1/16, so gaps and their totals are exact and
// equal totals are common: the index tie-break is exercised. The fleet
// grows, shrinks so that the slots compact, and grows again. A demand of
// the wrong dimension answers nil and builds nothing, before the first
// query and after.
func TestTightestFittingVecMatchesScan(t *testing.T) {
	scan := func(open []*Bin, sizes []float64) (best *Bin, ties int) {
		for _, b := range open {
			if !b.FitsDemand(sizes) {
				continue
			}
			switch {
			case best == nil || b.TotalGap() < best.TotalGap():
				best, ties = b, 0
			case b.TotalGap() == best.TotalGap():
				ties++
			}
		}
		return best, ties
	}
	for _, dim := range []int{1, 2, 3} {
		for _, keepAlive := range []float64{0, 0.75} {
			rng := rand.New(rand.NewSource(int64(10*dim) + int64(4*keepAlive)))
			g := NewLedgerKeepAlive(1, dim, keepAlive)
			g.EnableIndex()
			ix := g.Index()
			dyadic := func() []float64 {
				v := make([]float64, dim)
				for d := range v {
					v[d] = float64(1+rng.Intn(12)) / 16
				}
				return v
			}
			wrong := func(when string) {
				t.Helper()
				for _, n := range []int{dim - 1, dim + 1} {
					if b := ix.TightestFittingVec(make([]float64, n)); b != nil {
						t.Fatalf("d=%d, %s: a demand of length %d found bin %d", dim, when, n, b.Index)
					}
				}
			}
			wrong("empty fleet")
			if ix.mins != nil || ix.sums != nil || ix.tree != nil {
				t.Fatalf("d=%d: a wrong-dimension demand built a structure", dim)
			}
			var live []item.ID
			now, next := 0.0, item.ID(1)
			queries, ties, compactions := 0, 0, 0
			check := func(sizes []float64) {
				t.Helper()
				want, n := scan(g.OpenBins(), sizes)
				if got := ix.TightestFittingVec(sizes); got != want {
					t.Fatalf("d=%d, keep-alive %g, job %d: TightestFittingVec(%v) = bin %d, scan %d", dim, keepAlive, next, sizes, binIdx(got), binIdx(want))
				}
				queries++
				if n > 0 {
					ties++
				}
			}
			for _, phase := range []struct {
				steps   int
				pDepart float64
			}{{1500, 0.3}, {1500, 0.75}, {1000, 0.4}} {
				for step := 0; step < phase.steps; step++ {
					slots := len(ix.bins)
					now += 0.1 * rng.Float64()
					g.CloseExpired(now)
					if len(live) > 0 && rng.Float64() < phase.pDepart {
						k := rng.Intn(len(live))
						g.Remove(live[k], now)
						live[k] = live[len(live)-1]
						live = live[:len(live)-1]
					} else {
						it := item.Item{ID: next, Sizes: dyadic(), Arrival: now, Departure: math.Inf(1)}
						it.Size = slices.Max(it.Sizes)
						if dim == 1 {
							it.Sizes = nil
						}
						next++
						live = append(live, it.ID)
						if b := ix.TightestFittingVec(it.SizeVec()); b != nil {
							g.PlaceIn(b, it, now)
						} else {
							g.OpenNew(it, now)
						}
					}
					if len(ix.bins) < slots-1 {
						compactions++
					}
					if err := g.CheckInvariants(); err != nil {
						t.Fatalf("d=%d, keep-alive %g, job %d: %v", dim, keepAlive, next, err)
					}
					check(dyadic())
					if open := g.OpenBins(); len(open) > 0 {
						b := open[rng.Intn(len(open))]
						for _, delta := range []float64{-2 * Eps, -Eps, -Eps / 2, 0, Eps / 2, Eps, 2 * Eps} {
							sizes := make([]float64, dim)
							for d := range sizes {
								sizes[d] = b.GapAt(d) + delta
							}
							check(sizes)
						}
					}
				}
			}
			wrong("after the replay")
			if built := ix.sums != nil; built != (dim > 1) || ix.tree != nil {
				t.Fatalf("d=%d: built total-gap treap %v (want %v), gap tree %v", dim, built, dim > 1, ix.tree != nil)
			}
			if ties == 0 || compactions == 0 {
				t.Fatalf("d=%d, keep-alive %g: %d of %d queries had tied totals, %d compactions — the replay exercised too little", dim, keepAlive, ties, queries, compactions)
			}
			t.Logf("d=%d, keep-alive %g: %d queries, %d with tied totals, %d compactions, %d bins opened", dim, keepAlive, queries, ties, compactions, g.NumOpened())
		}
	}
}
