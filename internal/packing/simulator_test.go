package packing

import (
	"errors"
	"math/rand"
	"testing"

	"dbp/internal/bins"
	"dbp/internal/item"
)

// binsBin aliases bins.Bin so the faulty policy below matches Algorithm.
type binsBin = bins.Bin

func TestRunRejectsInvalidInstance(t *testing.T) {
	bad := item.List{mk(1, 1.5, 0, 1)}
	if _, err := Run(NewFirstFit(), bad, nil); err == nil {
		t.Fatal("oversize item must be rejected")
	}
	dup := item.List{mk(1, 0.5, 0, 1), mk(1, 0.5, 2, 3)}
	if _, err := Run(NewFirstFit(), dup, nil); err == nil {
		t.Fatal("duplicate IDs must be rejected")
	}
}

func TestRunRejectsMixedDims(t *testing.T) {
	l := item.List{
		mk(1, 0.5, 0, 1),
		{ID: 2, Size: 0.5, Sizes: []float64{0.5, 0.5}, Arrival: 0, Departure: 1},
	}
	if _, err := Run(NewFirstFit(), l, nil); err == nil {
		t.Fatal("mixed dimensionality must be rejected")
	}
}

func TestRunEmptyInstance(t *testing.T) {
	res := MustRun(NewFirstFit(), item.List{}, nil)
	if res.TotalUsage != 0 || res.NumBins() != 0 || res.MaxConcurrentOpen != 0 {
		t.Fatalf("empty run = %v", res)
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestRunSingleItem(t *testing.T) {
	res := MustRun(NewFirstFit(), item.List{mk(1, 1.0, 3, 8)}, nil)
	if res.TotalUsage != 5 || res.NumBins() != 1 {
		t.Fatalf("got %v", res)
	}
}

// A bin freed by a departure at time t must be usable by an arrival at the
// same t (half-open intervals, departures first).
func TestDepartureFreesCapacitySameInstant(t *testing.T) {
	l := item.List{
		mk(1, 1.0, 0, 5),
		mk(2, 1.0, 5, 9),
	}
	res := MustRun(NewFirstFit(), l, nil)
	// Item 1 departs at 5, closing bin 0; item 2 arrives at 5 and must
	// open a new bin (bin 0 closed at that very instant).
	if res.NumBins() != 2 {
		t.Fatalf("bins = %d, want 2", res.NumBins())
	}
	if res.TotalUsage != 9 {
		t.Fatalf("usage = %g, want 9", res.TotalUsage)
	}
	// But if a *smaller* item remains, the bin stays open and receives
	// the arrival.
	l2 := item.List{
		mk(1, 0.9, 0, 5),
		mk(2, 0.1, 0, 9),
		mk(3, 0.9, 5, 9),
	}
	res2 := MustRun(NewFirstFit(), l2, nil)
	if res2.NumBins() != 1 {
		t.Fatalf("bins = %d, want 1 (capacity freed at t=5 must be reusable at t=5)", res2.NumBins())
	}
}

func TestRunWithValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := randomInstance(rng, 200, 8)
	res, err := Run(NewFirstFit(), l, &Options{Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestRunCustomCapacity(t *testing.T) {
	l := item.List{mk(1, 0.5, 0, 1), mk(2, 0.5, 0, 1), mk(3, 0.5, 0, 1)}
	// Capacity 2: all three fit one bin.
	res := MustRun(NewFirstFit(), l, &Options{Capacity: 2})
	if res.NumBins() != 1 {
		t.Fatalf("bins = %d, want 1 at capacity 2", res.NumBins())
	}
}

func TestRunVectorItems(t *testing.T) {
	l := item.List{
		{ID: 1, Size: 0.8, Sizes: []float64{0.8, 0.1}, Arrival: 0, Departure: 5},
		{ID: 2, Size: 0.8, Sizes: []float64{0.1, 0.8}, Arrival: 0, Departure: 5},
		{ID: 3, Size: 0.8, Sizes: []float64{0.8, 0.8}, Arrival: 0, Departure: 5},
	}
	res := MustRun(NewFirstFit(), l, nil)
	// Items 1 and 2 share a bin (0.9, 0.9); item 3 needs its own.
	if res.NumBins() != 2 {
		t.Fatalf("bins = %d, want 2", res.NumBins())
	}
	if serverOf(res, 1) != serverOf(res, 2) {
		t.Fatal("complementary vector items must share a bin under FF")
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
}

// faultyFullBin always returns the first open bin, fitting or not, to
// exercise the simulator's policy-bug detection.
type faultyFullBin struct{}

func (faultyFullBin) Name() string { return "faulty" }
func (faultyFullBin) Place(a Arrival, f Fleet) *binsBin {
	if open := f.Open(); len(open) > 0 {
		return open[0]
	}
	return nil
}

func TestRunDetectsPolicyBug(t *testing.T) {
	l := item.List{
		mk(1, 0.9, 0, 10),
		mk(2, 0.9, 1, 10), // does not fit bin 0, but faulty returns bin 0
	}
	if _, err := Run(faultyFullBin{}, l, nil); err == nil {
		t.Fatal("simulator must reject a non-fitting placement")
	}
}

// foreignBin always returns one bin of another stream's ledger, as a
// policy that kept a server across streams would.
type foreignBin struct{ b *binsBin }

func (foreignBin) Name() string                    { return "foreign" }
func (f foreignBin) Place(Arrival, Fleet) *binsBin { return f.b }

// TestForeignBinIsMisplacement hands the engine an open server of
// another stream, with room for the arrival, on both engines, through
// Run and through Stream.Arrive: the placement fails with
// ErrPolicyMisplace, and the other stream's server is left as it was.
func TestForeignBinIsMisplacement(t *testing.T) {
	other := NewStream(NewFirstFit(), 0, 1)
	if _, _, err := other.Arrive(1, 0.1, nil, 0); err != nil {
		t.Fatal(err)
	}
	b := other.Ledger().OpenBins()[0]
	for _, kind := range []EngineKind{EngineIndexed, EngineLinear} {
		_, err := Run(foreignBin{b}, item.List{mk(1, 0.2, 0, 1)}, &Options{Engine: kind})
		if !errors.Is(err, ErrPolicyMisplace) {
			t.Errorf("%s Run: err = %v, want ErrPolicyMisplace", kind, err)
		}
		s, err := NewStreamEngine(foreignBin{b}, 0, 1, 0, kind)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Arrive(2, 0.2, nil, 0); !errors.Is(err, ErrPolicyMisplace) {
			t.Errorf("%s Stream.Arrive: err = %v, want ErrPolicyMisplace", kind, err)
		}
	}
	if b.Level() != 0.1 || len(b.ActiveItems()) != 1 {
		t.Fatalf("the other stream's server changed: level %g, %d items", b.Level(), len(b.ActiveItems()))
	}
	if err := other.Ledger().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func randomInstance(rng *rand.Rand, n int, horizon float64) item.List {
	l := make(item.List, n)
	for i := range l {
		a := rng.Float64() * horizon
		l[i] = mk(item.ID(i+1), 0.05+rng.Float64()*0.95, a, a+0.5+rng.Float64()*2)
	}
	return l
}
