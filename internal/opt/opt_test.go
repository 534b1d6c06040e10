package opt

import (
	"math"
	"math/rand"
	"testing"

	"dbp/internal/binpack"
	"dbp/internal/item"
	"dbp/internal/packing"
)

func mk(id item.ID, size, a, d float64) item.Item {
	return item.Item{ID: id, Size: size, Arrival: a, Departure: d}
}

func TestTotalExactSingleItem(t *testing.T) {
	l := item.List{mk(1, 1.0, 0, 5)}
	got, ok := TotalExact(l)
	if !ok || got != 5 {
		t.Fatalf("OPT_total = %g (ok=%v), want 5", got, ok)
	}
}

func TestTotalExactOverlapPair(t *testing.T) {
	// Two half-size items overlapping: one bin suffices at all times.
	l := item.List{mk(1, 0.5, 0, 2), mk(2, 0.5, 1, 3)}
	got, ok := TotalExact(l)
	if !ok || got != 3 {
		t.Fatalf("OPT_total = %g, want 3 (= span)", got)
	}
	// Two big items overlapping: two bins during [0,2)... item intervals
	// [0,2) and [1,3): segments [0,1):1 bin, [1,2):2 bins, [2,3):1 bin.
	l = item.List{mk(1, 0.6, 0, 2), mk(2, 0.6, 1, 3)}
	got, ok = TotalExact(l)
	if !ok || got != 4 {
		t.Fatalf("OPT_total = %g, want 4", got)
	}
}

func TestTotalExactGapInTimeline(t *testing.T) {
	// Idle gap contributes nothing.
	l := item.List{mk(1, 0.5, 0, 1), mk(2, 0.5, 10, 12)}
	got, ok := TotalExact(l)
	if !ok || got != 3 {
		t.Fatalf("OPT_total = %g, want 3", got)
	}
}

func TestTotalExactEmpty(t *testing.T) {
	got, ok := TotalExact(item.List{})
	if !ok || got != 0 {
		t.Fatalf("OPT_total(empty) = %g", got)
	}
}

func TestOptAt(t *testing.T) {
	l := item.List{mk(1, 0.6, 0, 2), mk(2, 0.6, 1, 3), mk(3, 0.4, 1, 3)}
	if got := OptAt(l, 0.5); got != 1 {
		t.Errorf("OPT at 0.5 = %d", got)
	}
	if got := OptAt(l, 1.5); got != 2 {
		t.Errorf("OPT at 1.5 = %d (0.6+0.6+0.4 needs 2 bins)", got)
	}
	if got := OptAt(l, 99); got != 0 {
		t.Errorf("OPT at idle time = %d", got)
	}
}

func TestMaxConcurrentOpt(t *testing.T) {
	l := item.List{mk(1, 0.6, 0, 2), mk(2, 0.6, 1, 3), mk(3, 0.6, 1, 3)}
	if got := MaxConcurrentOpt(l); got != 3 {
		t.Errorf("max concurrent OPT = %d, want 3", got)
	}
}

func TestPropositions(t *testing.T) {
	l := item.List{mk(1, 0.5, 0, 2), mk(2, 0.25, 1, 5)}
	if got := DemandLowerBound(l); got != 0.5*2+0.25*4 {
		t.Errorf("Prop 1 = %g", got)
	}
	if got := SpanLowerBound(l); got != 5 {
		t.Errorf("Prop 2 = %g", got)
	}
	if got := CombinedLowerBound(l); got != 5 {
		t.Errorf("combined = %g", got)
	}
}

func TestBoundsBracketAndExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 25; trial++ {
		l := randomInstance(rng, 60, 8)
		b := Total(l, ExactLimit)
		if b.Lower > b.Upper+1e-9 {
			t.Fatalf("bracket inverted: %+v", b)
		}
		exact, ok := TotalExact(l)
		if !ok {
			t.Fatal("exact solve did not finish on a small instance")
		}
		if exact < b.Lower-1e-9 || exact > b.Upper+1e-9 {
			t.Fatalf("exact %g outside bracket [%g, %g]", exact, b.Lower, b.Upper)
		}
		if b.Exact && math.Abs(b.Width()) > 1e-9 {
			t.Fatalf("Exact bracket with width %g", b.Width())
		}
		// Propositions never exceed the true optimum.
		if lb := CombinedLowerBound(l); lb > exact+1e-9 {
			t.Fatalf("Prop bound %g exceeds OPT %g", lb, exact)
		}
	}
}

// The fundamental soundness check behind every experiment: no online
// algorithm beats the offline optimum.
func TestNoAlgorithmBeatsOpt(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 15; trial++ {
		l := randomInstance(rng, 50, 6)
		exact, ok := TotalExact(l)
		if !ok {
			t.Skip("exact solve cut off")
		}
		for name, algo := range packing.Standard() {
			res, err := packing.Run(algo, l, nil)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.TotalUsage < exact-1e-6 {
				t.Fatalf("%s used %g < OPT %g — impossible", name, res.TotalUsage, exact)
			}
		}
	}
}

func TestBoundsMidWidth(t *testing.T) {
	b := Bounds{Lower: 2, Upper: 4}
	if b.Mid() != 3 || b.Width() != 2 {
		t.Errorf("mid=%g width=%g", b.Mid(), b.Width())
	}
}

func TestTotalWithTinyExactLimitStillBrackets(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	l := randomInstance(rng, 80, 5)
	// Force the heuristic path everywhere.
	b := Total(l, 1)
	exact, ok := TotalExact(l)
	if !ok {
		t.Skip("exact cut off")
	}
	if exact < b.Lower-1e-9 || exact > b.Upper+1e-9 {
		t.Fatalf("exact %g outside heuristic bracket [%g, %g]", exact, b.Lower, b.Upper)
	}
}

func TestTotalVec(t *testing.T) {
	l := item.List{
		{ID: 1, Size: 0.8, Sizes: []float64{0.8, 0.1}, Arrival: 0, Departure: 2},
		{ID: 2, Size: 0.8, Sizes: []float64{0.1, 0.8}, Arrival: 0, Departure: 2},
	}
	b := TotalVec(l)
	// One bin fits both: lower = 1 bin * 2 (ceil of 0.9 load), upper = 2.
	if b.Lower != 2 || b.Upper != 2 {
		t.Fatalf("vec bracket = %+v, want [2, 2]", b)
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

// A segment whose search spends the node budget contributes L2 (12)
// below and the search's incumbent (13) above, not FFD's 14;
// TotalExact reads the same upper end.
func TestTotalCutOffSegmentKeepsIncumbent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sizes := make([]float64, 32)
	l := make(item.List, len(sizes))
	for i := range sizes {
		sizes[i] = 0.2 + 0.3*rng.Float64()
		l[i] = mk(item.ID(i+1), sizes[i], 0, 1)
	}
	n, complete := binpack.ExactWithLimit(sizes, 1, binpack.DefaultNodeLimit)
	if complete || n >= binpack.FirstFitDecreasing(sizes, 1) {
		t.Fatalf("ExactWithLimit = (%d, %v); the test needs a cut-off search that beat FFD", n, complete)
	}
	b := Total(l, ExactLimit)
	if want := (Bounds{Lower: float64(binpack.L2(sizes, 1)), Upper: float64(n)}); b != want {
		t.Fatalf("Total = %+v, want %+v", b, want)
	}
	if total, ok := TotalExact(l); total != b.Upper || ok {
		t.Fatalf("TotalExact = (%g, %v), want (%g, false)", total, ok, b.Upper)
	}
}
