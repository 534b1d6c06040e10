package item

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mk(id ID, size, a, d float64) Item {
	return Item{ID: id, Size: size, Arrival: a, Departure: d}
}

func TestItemBasics(t *testing.T) {
	it := mk(1, 0.5, 2, 5)
	if it.Duration() != 3 {
		t.Errorf("duration = %g", it.Duration())
	}
	if it.Demand() != 1.5 {
		t.Errorf("demand = %g", it.Demand())
	}
	if it.Interval().Lo != 2 || it.Interval().Hi != 5 {
		t.Errorf("interval = %v", it.Interval())
	}
	if it.Dim() != 1 || len(it.SizeVec()) != 1 || it.SizeVec()[0] != 0.5 {
		t.Error("scalar item must present a 1-D size vector")
	}
}

func TestItemValidate(t *testing.T) {
	good := mk(1, 0.5, 0, 1)
	if err := good.Validate(); err != nil {
		t.Errorf("valid item rejected: %v", err)
	}
	bad := []Item{
		mk(2, 0.5, 1, 1),             // zero duration
		mk(3, 0.5, 2, 1),             // negative duration
		mk(4, 0, 0, 1),               // zero size
		mk(5, 1.5, 0, 1),             // oversize
		mk(6, -0.1, 0, 1),            // negative size
		mk(7, math.NaN(), 0, 1),      // NaN size
		mk(8, 0.5, math.NaN(), 1),    // NaN time
		mk(9, 0.5, 0, math.Inf(1)),   // infinite departure
		mk(10, 0.5, math.Inf(-1), 1), // infinite arrival
	}
	for _, it := range bad {
		if err := it.Validate(); err == nil {
			t.Errorf("invalid item accepted: %v", it)
		}
	}
}

func TestItemValidateVector(t *testing.T) {
	ok := Item{ID: 1, Size: 0.7, Sizes: []float64{0.7, 0.3}, Arrival: 0, Departure: 1}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid vector item rejected: %v", err)
	}
	if ok.Dim() != 2 {
		t.Errorf("dim = %d", ok.Dim())
	}
	badMax := Item{ID: 2, Size: 0.5, Sizes: []float64{0.7, 0.3}, Arrival: 0, Departure: 1}
	if err := badMax.Validate(); err == nil {
		t.Error("Size != max(Sizes) must be rejected")
	}
	badComp := Item{ID: 3, Size: 1, Sizes: []float64{1, 1.2}, Arrival: 0, Departure: 1}
	if err := badComp.Validate(); err == nil {
		t.Error("component > 1 must be rejected")
	}
}

func TestListValidateDuplicateIDs(t *testing.T) {
	l := List{mk(1, 0.5, 0, 1), mk(1, 0.5, 2, 3)}
	if err := l.Validate(); err == nil {
		t.Error("duplicate IDs must be rejected")
	}
}

func TestSpanFigure1(t *testing.T) {
	// Figure 1: overlapping items whose union is shorter than the sum.
	l := List{
		mk(1, 0.3, 0, 4),
		mk(2, 0.3, 2, 6),
		mk(3, 0.3, 8, 10),
	}
	if got := l.Span(); got != 8 {
		t.Errorf("span = %g, want 8", got)
	}
}

func TestTotals(t *testing.T) {
	l := List{mk(1, 0.25, 0, 2), mk(2, 0.5, 1, 3)}
	if got := l.TotalSize(); got != 0.75 {
		t.Errorf("total size = %g", got)
	}
}

func TestPackingPeriod(t *testing.T) {
	l := List{mk(1, 0.5, 3, 5), mk(2, 0.5, 1, 2)}
	pp := l.PackingPeriod()
	if pp.Lo != 1 || pp.Hi != 5 {
		t.Errorf("packing period = %v", pp)
	}
	if !(List{}).PackingPeriod().Empty() {
		t.Error("empty list packing period must be empty")
	}
}

func TestMu(t *testing.T) {
	l := List{mk(1, 0.5, 0, 1), mk(2, 0.5, 0, 4)}
	if got := l.Mu(); got != 4 {
		t.Errorf("mu = %g, want 4", got)
	}
	if got := (List{mk(1, 0.5, 0, 7)}).Mu(); got != 1 {
		t.Errorf("single-item mu = %g, want 1", got)
	}
	if got := (List{}).Mu(); got != 1 {
		t.Errorf("empty mu = %g, want 1", got)
	}
}

func TestSortedByArrivalStable(t *testing.T) {
	l := List{mk(3, 0.1, 5, 6), mk(2, 0.1, 0, 1), mk(1, 0.1, 0, 2)}
	s := l.SortedByArrival()
	if s[0].ID != 1 || s[1].ID != 2 || s[2].ID != 3 {
		t.Errorf("sorted = %v", s)
	}
	if l[0].ID != 3 {
		t.Error("SortedByArrival must not mutate the receiver")
	}
}

func TestScale(t *testing.T) {
	l := List{mk(1, 0.5, 1, 2)}
	s := l.Scale(3)
	if s[0].Arrival != 3 || s[0].Departure != 6 || s[0].Size != 0.5 {
		t.Errorf("scaled = %v", s[0])
	}
	if l[0].Arrival != 1 {
		t.Error("Scale must not mutate the receiver")
	}
}

func TestMaxConcurrentLoad(t *testing.T) {
	l := List{mk(1, 0.5, 0, 2), mk(2, 0.75, 1, 3)}
	if got := l.MaxConcurrentLoad(); got != 1.25 {
		t.Errorf("peak load = %g", got)
	}
}

// Property: span <= total duration, span <= packing period length,
// demand <= totalSize * maxDuration.
func TestListInequalities(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		l := make(List, n)
		var totalDur float64
		for i := range l {
			a := rng.Float64() * 100
			d := 0.1 + rng.Float64()*10
			l[i] = mk(ID(i), 0.01+rng.Float64()*0.99, a, a+d)
			totalDur += d
		}
		span := l.Span()
		if span > totalDur+1e-9 {
			return false
		}
		if span > l.PackingPeriod().Length()+1e-9 {
			return false
		}
		var demand float64
		for _, it := range l {
			demand += it.Demand()
		}
		return demand <= l.TotalSize()*l.MaxDuration()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Mu is invariant under time scaling.
func TestMuScaleInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		l := make(List, n)
		for i := range l {
			a := rng.Float64() * 10
			l[i] = mk(ID(i), 0.5, a, a+0.5+rng.Float64()*5)
		}
		mu := l.Mu()
		scaled := l.Scale(1 + rng.Float64()*9)
		return math.Abs(mu-scaled.Mu()) < 1e-9*mu
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
