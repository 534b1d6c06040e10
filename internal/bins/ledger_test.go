package bins

import (
	"math"
	"math/rand"
	"testing"

	"dbp/internal/item"
)

func TestLedgerOpenPlaceRemove(t *testing.T) {
	g := NewLedger(1.0, 1)
	i1 := mkItem(1, 0.5, 0, 2)
	i2 := mkItem(2, 0.5, 0, 3)
	b0 := g.OpenNew(i1, 0)
	g.PlaceIn(b0, i2, 0)
	if g.NumOpen() != 1 || g.NumOpened() != 1 {
		t.Fatalf("open=%d opened=%d", g.NumOpen(), g.NumOpened())
	}
	if g.Locate(1) != b0 || g.Locate(2) != b0 {
		t.Fatal("Locate wrong")
	}
	if _, closed := g.Remove(1, 2); closed {
		t.Fatal("bin must stay open while item 2 remains")
	}
	b, closed := g.Remove(2, 3)
	if !closed || b != b0 {
		t.Fatal("bin must close when last item departs")
	}
	if g.TotalUsage(99) != 3 {
		t.Fatalf("usage = %g, want 3", g.TotalUsage(99))
	}
	if g.Locate(1) != nil {
		t.Fatal("departed item still located")
	}
}

func TestLedgerMaxConcurrentOpen(t *testing.T) {
	g := NewLedger(1.0, 1)
	a := mkItem(1, 0.9, 0, 10)
	b := mkItem(2, 0.9, 1, 3)
	g.OpenNew(a, 0)
	g.OpenNew(b, 1)
	if g.MaxConcurrentOpen() != 2 {
		t.Fatalf("max open = %d", g.MaxConcurrentOpen())
	}
	g.Remove(2, 3)
	g.OpenNew(mkItem(3, 0.9, 4, 5), 4)
	if g.MaxConcurrentOpen() != 2 {
		t.Fatal("peak must not grow when reopening after a close")
	}
}

func TestLedgerTotalUsageWithOpenBins(t *testing.T) {
	g := NewLedger(1.0, 1)
	g.OpenNew(mkItem(1, 0.5, 0, 10), 0)
	g.OpenNew(mkItem(2, 0.5, 2, 10), 2)
	// At time 5: bin0 ran 5, bin1 ran 3.
	if got := g.TotalUsage(5); got != 8 {
		t.Fatalf("usage at 5 = %g, want 8", got)
	}
}

func TestLedgerRemoveUnknownPanics(t *testing.T) {
	g := NewLedger(1.0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.Remove(42, 0)
}

// An item resident in one bin cannot be placed in another: the first
// copy could never be removed, and its level would stay in that server
// for good.
func TestLedgerPanicsOnDuplicateAcrossBins(t *testing.T) {
	for name, place := range map[string]func(g *Ledger, other *Bin){
		"PlaceIn": func(g *Ledger, other *Bin) { g.PlaceIn(other, mkItem(1, 0.1, 1, 2), 1) },
		"OpenNew": func(g *Ledger, _ *Bin) { g.OpenNew(mkItem(1, 0.1, 1, 2), 1) },
	} {
		g := NewLedger(1.0, 1)
		g.OpenNew(mkItem(1, 0.5, 0, 2), 0)
		other := g.OpenNew(mkItem(2, 0.6, 0, 2), 0)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s of item 1 into a second bin did not panic", name)
				}
			}()
			place(g, other)
		}()
	}
}

func TestLedgerOpenListOrder(t *testing.T) {
	g := NewLedger(1.0, 1)
	for i := 0; i < 5; i++ {
		g.OpenNew(mkItem(item.ID(i), 0.9, 0, 10), 0)
	}
	// Close the middle bin and confirm order is preserved.
	g.Remove(2, 1)
	idx := []int{}
	for _, b := range g.OpenBins() {
		idx = append(idx, b.Index)
	}
	want := []int{0, 1, 3, 4}
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("open order = %v", idx)
		}
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Removing the first, middle, and last bin of the open list exercises
// every branch of the binary-search deletion.
func TestLedgerRemoveFirstMiddleLast(t *testing.T) {
	openOrder := func(g *Ledger) []int {
		idx := []int{}
		for _, b := range g.OpenBins() {
			idx = append(idx, b.Index)
		}
		return idx
	}
	g := NewLedger(1.0, 1)
	for i := 0; i < 5; i++ {
		g.OpenNew(mkItem(item.ID(i), 0.9, 0, 10), 0)
	}
	steps := []struct {
		remove item.ID
		want   []int
	}{
		{0, []int{1, 2, 3, 4}}, // first
		{4, []int{1, 2, 3}},    // last
		{2, []int{1, 3}},       // middle
		{1, []int{3}},
		{3, []int{}},
	}
	for _, s := range steps {
		if _, closed := g.Remove(s.remove, 1); !closed {
			t.Fatalf("removing sole item %d must close its bin", s.remove)
		}
		got := openOrder(g)
		if len(got) != len(s.want) {
			t.Fatalf("after removing %d: open = %v, want %v", s.remove, got, s.want)
		}
		for i := range s.want {
			if got[i] != s.want[i] {
				t.Fatalf("after removing %d: open = %v, want %v", s.remove, got, s.want)
			}
		}
		if err := g.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// Randomized keep-alive churn: placements, removals, expiries and reuse of
// lingering bins, with the full invariant check (including the expiry
// heap) after every step and a usage recomputation at the end.
func TestLedgerKeepAliveInvariantsRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		keepAlive := 0.1 + rng.Float64()*3
		g := NewLedgerKeepAlive(1.0, 1, keepAlive)
		var opened []*Bin // every bin, for the usage recomputation below
		live := []item.ID{}
		next := item.ID(0)
		now := 0.0
		for step := 0; step < 400; step++ {
			now += rng.Float64() * 0.5
			g.CloseExpired(now)
			if len(live) == 0 || rng.Float64() < 0.55 {
				it := mkItem(next, 0.05+rng.Float64()*0.9, now, now+1000)
				next++
				placed := false
				for _, b := range g.OpenBins() {
					if b.Fits(it) {
						g.PlaceIn(b, it, now)
						placed = true
						break
					}
				}
				if !placed {
					opened = append(opened, g.OpenNew(it, now))
				}
				live = append(live, it.ID)
			} else {
				k := rng.Intn(len(live))
				g.Remove(live[k], now)
				live = append(live[:k], live[k+1:]...)
			}
			if err := g.CheckInvariants(); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
		}
		for _, id := range live {
			now += rng.Float64() * 0.5
			g.Remove(id, now)
		}
		g.CloseExpired(now + 2*keepAlive + 1)
		g.CloseAllLingering()
		if g.NumOpen() != 0 {
			t.Fatalf("trial %d: %d bins open after drain", trial, g.NumOpen())
		}
		var want float64
		for _, b := range opened {
			want += b.Usage()
		}
		if got := g.TotalUsage(0); math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("trial %d: usage %g, recomputed %g", trial, got, want)
		}
	}
}

func TestLedgerInvariantsRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		g := NewLedger(1.0, 1)
		live := []item.ID{}
		next := item.ID(0)
		now := 0.0
		for step := 0; step < 300; step++ {
			now += rng.Float64()
			if len(live) == 0 || rng.Float64() < 0.55 {
				it := mkItem(next, 0.05+rng.Float64()*0.9, now, now+1000)
				next++
				placed := false
				for _, b := range g.OpenBins() {
					if b.Fits(it) {
						g.PlaceIn(b, it, now)
						placed = true
						break
					}
				}
				if !placed {
					g.OpenNew(it, now)
				}
				live = append(live, it.ID)
			} else {
				k := rng.Intn(len(live))
				g.Remove(live[k], now)
				live = append(live[:k], live[k+1:]...)
			}
			if err := g.CheckInvariants(); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
		}
	}
}

func TestNewLedgerPanicsOnBadDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewLedger(1, 0)
}
