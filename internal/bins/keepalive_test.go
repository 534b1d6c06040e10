package bins

import (
	"math"
	"testing"
)

func TestBinLingeringLifecycle(t *testing.T) {
	b := openBin(0, 1, 1, 0)
	b.LingerWhenEmpty = true
	b.Place(mkItem(1, 0.5, 0, 2), 0)
	if b.Lingering() {
		t.Fatal("occupied bin must not linger")
	}
	b.Remove(1, 2)
	if !b.IsOpen() || !b.Lingering() {
		t.Fatal("bin must linger open when empty")
	}
	if b.EmptySince() != 2 {
		t.Fatalf("emptySince = %g", b.EmptySince())
	}
	// Reuse cancels lingering.
	b.Place(mkItem(2, 0.5, 3, 5), 3)
	if b.Lingering() {
		t.Fatal("reused bin must not linger")
	}
	b.Remove(2, 5)
	b.Close(6)
	if b.IsOpen() || b.ClosedAt() != 6 || b.Usage() != 6 {
		t.Fatalf("closed at %g, usage %g", b.ClosedAt(), b.Usage())
	}
}

func TestBinClosePanics(t *testing.T) {
	cases := []func(){
		func() { // occupied
			b := openBin(0, 1, 1, 0)
			b.LingerWhenEmpty = true
			b.Place(mkItem(1, 0.5, 0, 2), 0)
			b.Close(1)
		},
		func() { // before emptySince
			b := openBin(0, 1, 1, 0)
			b.LingerWhenEmpty = true
			b.Place(mkItem(1, 0.5, 0, 2), 0)
			b.Remove(1, 2)
			b.Close(1)
		},
		func() { // EmptySince on occupied bin
			b := openBin(0, 1, 1, 0)
			b.Place(mkItem(1, 0.5, 0, 2), 0)
			_ = b.EmptySince()
		},
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestBinPlacePanicsAfterOpenTime(t *testing.T) {
	b := openBin(0, 1, 1, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic placing before open time")
		}
	}()
	b.Place(mkItem(1, 0.5, 0, 10), 4)
}

func TestLedgerKeepAliveCloseExpired(t *testing.T) {
	g := NewLedgerKeepAlive(1, 1, 2)
	b := g.OpenNew(mkItem(1, 0.5, 0, 1), 0)
	g.OpenNew(mkItem(2, 0.9, 0, 3), 0)
	if _, closed := g.Remove(1, 1); closed {
		t.Fatal("keep-alive bin must not close on empty")
	}
	if g.NumOpen() != 2 {
		t.Fatal("lingering bin must remain open")
	}
	// Before expiry: nothing closes.
	if n := g.CloseExpired(2.5); n != 0 {
		t.Fatalf("closed %d before expiry", n)
	}
	// At expiry (1 + 2 = 3): closes, at exactly t=3.
	if n := g.CloseExpired(3); n != 1 {
		t.Fatalf("closed %d at expiry", n)
	}
	if b.Index != 0 || b.IsOpen() || b.ClosedAt() != 3 {
		t.Fatalf("bin 0 closed at %v", b)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Drain the other bin, then CloseAllLingering.
	g.Remove(2, 3)
	g.CloseAllLingering()
	if g.NumOpen() != 0 {
		t.Fatal("all bins must be closed")
	}
	if g.TotalUsage(0) != 3+5 {
		t.Fatalf("usage = %g, want 8 ([0,3) + [0,5))", g.TotalUsage(0))
	}
	if g.KeepAlive() != 2 {
		t.Fatal("keep-alive accessor")
	}
}

// Bins must expire in order of emptying time, not opening order, and a
// single CloseExpired call must close every bin whose expiry has passed —
// including ties (two bins emptying at the same instant).
func TestCloseExpiredOrderAndTies(t *testing.T) {
	g := NewLedgerKeepAlive(1, 1, 2)
	opened := []*Bin{
		g.OpenNew(mkItem(1, 0.9, 0, 3), 0), // bin 0, empties last
		g.OpenNew(mkItem(2, 0.9, 0, 1), 0), // bin 1, empties at 1
		g.OpenNew(mkItem(3, 0.9, 0, 1), 0), // bin 2, empties at 1 (tie with bin 1)
	}
	g.Remove(2, 1)
	g.Remove(3, 1)
	g.Remove(1, 3)
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Expiries: bins 1 and 2 at 3 (= 1 + 2), bin 0 at 5. At now = 3 the
	// tied pair closes (half-open: exactly-at-now expires); bin 0 stays.
	if n := g.CloseExpired(3); n != 2 {
		t.Fatalf("closed %d at t=3, want 2", n)
	}
	for _, idx := range []int{1, 2} {
		if b := opened[idx]; b.IsOpen() || b.ClosedAt() != 3 {
			t.Fatalf("bin %d: %v, want closed at 3", idx, b)
		}
	}
	if g.NumOpen() != 1 || g.OpenBins()[0].Index != 0 {
		t.Fatalf("open after t=3: %v", g.OpenBins())
	}
	if n := g.CloseExpired(5); n != 1 {
		t.Fatalf("closed %d at t=5, want 1", n)
	}
	if b := opened[0]; b.ClosedAt() != 5 {
		t.Fatalf("bin 0 closed at %g, want 5", b.ClosedAt())
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// A bin that empties, is revived, and empties again must expire from its
// SECOND emptying time: the stale heap entry from the first spell must be
// discarded, not close the bin early.
func TestCloseExpiredSkipsRevivedEntry(t *testing.T) {
	g := NewLedgerKeepAlive(1, 1, 5)
	b := g.OpenNew(mkItem(1, 0.5, 0, 1), 0)
	g.Remove(1, 1) // lingers, would expire at 6
	g.PlaceIn(b, mkItem(2, 0.5, 2, 4), 2)
	g.Remove(2, 4) // lingers again, expires at 9
	if n := g.CloseExpired(6); n != 0 {
		t.Fatalf("stale entry closed %d bins at t=6", n)
	}
	if !b.Lingering() {
		t.Fatal("bin must still be lingering at t=6")
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if n := g.CloseExpired(9); n != 1 {
		t.Fatalf("closed %d at t=9, want 1", n)
	}
	if b.ClosedAt() != 9 {
		t.Fatalf("closed at %g, want 9 (4 + keep-alive 5)", b.ClosedAt())
	}
}

func TestLedgerKeepAliveReuseCancelsShutdown(t *testing.T) {
	g := NewLedgerKeepAlive(1, 1, 10)
	b := g.OpenNew(mkItem(1, 0.5, 0, 1), 0)
	g.Remove(1, 1)
	g.PlaceIn(b, mkItem(2, 0.5, 2, 4), 2)
	if n := g.CloseExpired(100); n != 0 {
		t.Fatal("occupied bin must not expire")
	}
	g.Remove(2, 4)
	g.CloseAllLingering()
	if b.ClosedAt() != 14 {
		t.Fatalf("closed at %g, want 14 (4 + keep-alive 10)", b.ClosedAt())
	}
}

func TestNewLedgerKeepAlivePanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewLedgerKeepAlive(1, 1, -1)
}

func TestOpenNewCapSetsPerBinCapacity(t *testing.T) {
	g := NewLedger(1, 1)
	b := g.OpenNewCap(mkItem(1, 0.2, 0, 1), 0, 0.25)
	if b.Capacity != 0.25 {
		t.Fatalf("capacity = %g", b.Capacity)
	}
	if b.Fits(mkItem(2, 0.1, 0, 1)) != (b.Level()+0.1 <= 0.25+Eps) {
		t.Fatal("fits must respect the per-bin capacity")
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUsagePeriodOfLingeringBin(t *testing.T) {
	b := openBin(0, 1, 1, 1)
	b.LingerWhenEmpty = true
	b.Place(mkItem(1, 0.5, 1, 2), 1)
	b.Remove(1, 2)
	if !math.IsNaN(func() (v float64) {
		defer func() { recover(); v = math.NaN() }()
		v = b.ClosedAt()
		return v
	}()) {
		t.Fatal("ClosedAt must panic while lingering")
	}
	b.Close(5)
	if b.OpenedAt() != 1 || b.ClosedAt() != 5 {
		t.Fatalf("usage period = [%g, %g)", b.OpenedAt(), b.ClosedAt())
	}
}
