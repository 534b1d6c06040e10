package opt

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"dbp/internal/item"
	"dbp/internal/packing"
)

// combinedLowerBound is max(Prop 1, Prop 2), the denominator the paper's
// competitive analysis measures against when the true OPT is unknown: a
// lower bound at every d, which TotalVec's Lower never falls below.
func combinedLowerBound(l item.List) float64 {
	return math.Max(DemandLowerBound(l), SpanLowerBound(l))
}

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

func TestMaxConcurrentOpt(t *testing.T) {
	l := item.List{mk(1, 0.6, 0, 2), mk(2, 0.6, 1, 3), mk(3, 0.6, 1, 3)}
	if got := MaxConcurrentOpt(l); got != 3 {
		t.Errorf("max concurrent OPT = %d, want 3", got)
	}
}

// An item of zero length is never active: it must not linger in the
// sweep's active set until the list ends, doubling [1, 4) here.
func TestZeroLengthItemNeverActive(t *testing.T) {
	l := item.List{mk(1, 0.7, 1, 1), mk(2, 0.5, 0, 4)}
	if got, ok := TotalExact(l); !ok || got != 4 {
		t.Errorf("OPT_total = %g (ok=%v), want 4", got, ok)
	}
	if b := TotalVec(l); b.Lower != 4 || b.Upper != 4 {
		t.Errorf("vec bracket = %+v, want [4, 4]", b)
	}
	if got := MaxConcurrentOpt(l); got != 1 {
		t.Errorf("max concurrent OPT = %d, want 1", got)
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
	if got := combinedLowerBound(l); got != 5 {
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
		if lb := combinedLowerBound(l); lb > exact+1e-9 {
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

// rescanTotalVec is the reference TotalVec: at each distinct event time,
// a scan of the whole list collects the active demands in list order for
// the interval up to the next distinct time.
func rescanTotalVec(l item.List) Bounds {
	var times []float64
	for _, it := range l {
		times = append(times, it.Arrival, it.Departure)
	}
	slices.Sort(times)
	times = slices.Compact(times)
	b := Bounds{}
	for i := 0; i+1 < len(times); i++ {
		var sizes [][]float64
		for _, it := range l {
			if it.Interval().Contains(times[i]) {
				sizes = append(sizes, it.SizeVec())
			}
		}
		if len(sizes) == 0 {
			continue
		}
		length := times[i+1] - times[i]
		lo := max(lowerL1Vec(sizes, 1), 1)
		b.Lower += float64(lo) * length
		b.Upper += float64(firstFitVec(sizes, 1)) * length
	}
	b.Exact = b.Upper-b.Lower < 1e-12
	return b
}

// TotalVec sweeps each segment once instead of rescanning the list at
// every event time; on valid d = 2 lists with tied times its bracket is
// the rescan's bit for bit.
func TestTotalVecMatchesRescan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		l := make(item.List, 1+rng.Intn(40))
		for i := range l {
			a := float64(rng.Intn(8)) + 0.1*float64(rng.Intn(3))
			s := []float64{0.05 + 0.9*rng.Float64(), 0.05 + 0.9*rng.Float64()}
			l[i] = item.Item{ID: item.ID(i + 1), Size: max(s[0], s[1]), Sizes: s, Arrival: a, Departure: a + float64(1+rng.Intn(4))}
		}
		got, want := TotalVec(l), rescanTotalVec(l)
		if math.Float64bits(got.Lower) != math.Float64bits(want.Lower) ||
			math.Float64bits(got.Upper) != math.Float64bits(want.Upper) || got.Exact != want.Exact {
			t.Fatalf("trial %d: TotalVec = %+v, rescan %+v", trial, got, want)
		}
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
	n, complete := exactBinsLimit(sizes, 1, nodeLimit)
	if complete || n >= firstFitDecreasing(sizes, 1) {
		t.Fatalf("ExactWithLimit = (%d, %v); the test needs a cut-off search that beat FFD", n, complete)
	}
	b := Total(l, ExactLimit)
	if want := (Bounds{Lower: float64(lowerL2(sizes, 1)), Upper: float64(n)}); b != want {
		t.Fatalf("Total = %+v, want %+v", b, want)
	}
	if total, ok := TotalExact(l); total != b.Upper || ok {
		t.Fatalf("TotalExact = (%g, %v), want (%g, false)", total, ok, b.Upper)
	}
}

// Width returns Upper - Lower.
func (b Bounds) Width() float64 { return b.Upper - b.Lower }
