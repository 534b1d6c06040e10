package bins

import (
	"testing"

	"dbp/internal/item"
)

func mkItem(id item.ID, size, a, d float64) item.Item {
	return item.Item{ID: id, Size: size, Arrival: a, Departure: d}
}

func TestOpenPlaceRemoveLifecycle(t *testing.T) {
	b := openBin(0, 1.0, 1, 5)
	if !b.IsOpen() || b.OpenedAt() != 5 {
		t.Fatal("bin must open at given time")
	}
	it := mkItem(1, 0.6, 5, 9)
	if !b.Fits(it) {
		t.Fatal("item must fit empty bin")
	}
	b.Place(it, 5)
	if b.Level() != 0.6 || b.NumActive() != 1 {
		t.Fatalf("level = %g, n = %d", b.Level(), b.NumActive())
	}
	b.Remove(1, 9)
	if b.IsOpen() {
		t.Fatal("bin must close when emptied")
	}
	if b.ClosedAt() != 9 || b.Usage() != 4 {
		t.Fatalf("closedAt = %g, usage = %g", b.ClosedAt(), b.Usage())
	}
	if b.OpenedAt() != 5 || b.ClosedAt() != 9 {
		t.Fatalf("usage period = [%g, %g)", b.OpenedAt(), b.ClosedAt())
	}
}

func TestFitsCapacity(t *testing.T) {
	b := openBin(0, 1.0, 1, 0)
	b.Place(mkItem(1, 0.5, 0, 10), 0)
	if !b.Fits(mkItem(2, 0.5, 0, 10)) {
		t.Error("exact fill must fit (0.5+0.5 == 1)")
	}
	if b.Fits(mkItem(3, 0.51, 0, 10)) {
		t.Error("overflow must not fit")
	}
}

func TestFitsEpsilonTolerance(t *testing.T) {
	b := openBin(0, 1.0, 1, 0)
	// Three thirds do not sum to exactly 1 in float64; Eps must absorb it.
	third := 1.0 / 3.0
	for i := 0; i < 3; i++ {
		it := mkItem(item.ID(i), third, 0, 1)
		if !b.Fits(it) {
			t.Fatalf("third #%d must fit, level %v", i, b.Level())
		}
		b.Place(it, 0)
	}
}

func TestPlacePanicsWhenFull(t *testing.T) {
	b := openBin(0, 1.0, 1, 0)
	b.Place(mkItem(1, 0.9, 0, 1), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic placing into full bin")
		}
	}()
	b.Place(mkItem(2, 0.5, 0, 1), 0)
}

func TestPlacePanicsOnDuplicate(t *testing.T) {
	b := openBin(0, 1.0, 1, 0)
	b.Place(mkItem(1, 0.1, 0, 1), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate placement")
		}
	}()
	b.Place(mkItem(1, 0.1, 0, 1), 0)
}

func TestRemovePanicsOnAbsent(t *testing.T) {
	b := openBin(0, 1.0, 1, 0)
	b.Place(mkItem(1, 0.1, 0, 1), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic removing absent item")
		}
	}()
	b.Remove(99, 1)
}

func TestClosedAtPanicsWhileOpen(t *testing.T) {
	b := openBin(0, 1.0, 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic reading ClosedAt of open bin")
		}
	}()
	_ = b.ClosedAt()
}

func TestVectorBin(t *testing.T) {
	b := openBin(0, 1.0, 2, 0)
	it := item.Item{ID: 1, Size: 0.8, Sizes: []float64{0.8, 0.2}, Arrival: 0, Departure: 1}
	if !b.Fits(it) {
		t.Fatal("vector item must fit empty 2-D bin")
	}
	b.Place(it, 0)
	lv := b.level
	if lv[0] != 0.8 || lv[1] != 0.2 {
		t.Fatalf("level vec = %v", lv)
	}
	// Second item fits in dim 0? 0.8+0.1 <= 1 but dim 1: 0.2+0.9 > 1.
	it2 := item.Item{ID: 2, Size: 0.9, Sizes: []float64{0.1, 0.9}, Arrival: 0, Departure: 1}
	if b.Fits(it2) {
		t.Error("vector admission must check every dimension")
	}
	// Dimension mismatch never fits.
	if b.Fits(mkItem(3, 0.1, 0, 1)) {
		t.Error("1-D item must not fit a 2-D bin")
	}
}

func TestOpenPanicsOnBadArgs(t *testing.T) {
	for _, f := range []func(){
		func() { openBin(0, 1, 0, 0) },  // dim 0
		func() { openBin(0, 0, 1, 0) },  // zero capacity
		func() { openBin(0, -1, 1, 0) }, // negative capacity
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestGapAndString(t *testing.T) {
	b := openBin(3, 1.0, 1, 0)
	b.Place(mkItem(1, 0.25, 0, 1), 0)
	if b.Gap() != 0.75 {
		t.Errorf("gap = %g", b.Gap())
	}
	if b.String() == "" {
		t.Error("String must render")
	}
	b.Remove(1, 1)
	if b.String() == "" {
		t.Error("String must render closed bins")
	}
}
