package analysis

import (
	"math/rand"
	"testing"

	"dbp/internal/interval"
	"dbp/internal/packing"
	"dbp/internal/workload"
)

func groupsFor(t *testing.T, res *packing.Result, p SupplierParams) ([]BinSubperiods, []LGroup) {
	t.Helper()
	sps := SubperiodsOf(res)
	if err := VerifySubperiods(res, sps); err != nil {
		t.Fatal(err)
	}
	return sps, BuildLGroups(sps, p)
}

func TestBuildLGroupsOnTrap(t *testing.T) {
	// The gap-seal trap produces one l-subperiod per victim bin (the
	// sealing tiny), each with the previous bin as supplier — n-1 groups
	// (bin 0 has no supplier... bin 0's V is empty so no l-subperiods;
	// bins 1..n-1 each produce one).
	res := packing.MustRun(packing.NewFirstFit(), workload.AnyFitTrap(10, 4), nil)
	_, groups := groupsFor(t, res, DefaultSupplierParams())
	if len(groups) == 0 {
		t.Fatal("trap must produce l-groups")
	}
	for _, g := range groups {
		if g.SupplierIndex >= g.BinIndex {
			t.Fatalf("supplier %d not earlier than bin %d", g.SupplierIndex, g.BinIndex)
		}
		if len(g.Members) < 1 {
			t.Fatal("empty group")
		}
		if g.Supplier.Length() <= 0 {
			t.Fatalf("degenerate supplier period %v", g.Supplier)
		}
	}
}

func TestLGroupsCoverAllSuppliedLSubperiods(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		l := smallItemInstance(rng, 120, 12, 2+rng.Float64()*5)
		res := packing.MustRun(packing.NewFirstFit(), l, nil)
		sps, groups := groupsFor(t, res, DefaultSupplierParams())
		want := 0
		for _, bs := range sps {
			for _, sp := range bs.Subperiods {
				if !sp.High && sp.SupplierIndex >= 0 {
					want++
				}
			}
		}
		got := 0
		for _, g := range groups {
			got += len(g.Members)
		}
		if got != want {
			t.Fatalf("groups cover %d l-subperiods, want %d", got, want)
		}
	}
}

func TestPairedRequiresAdjacentIndexAndCommonSupplier(t *testing.T) {
	w := 4.0
	p := DefaultSupplierParams()
	a := Subperiod{Index: 1, SupplierIndex: 0, Interval: ivl(0, 3)}
	b := Subperiod{Index: 2, SupplierIndex: 0, Interval: ivl(3, 6)}
	if !paired(a, b, w, p) {
		t.Fatal("long adjacent same-supplier subperiods must pair (3 > 4-3)")
	}
	bFar := b
	bFar.Index = 3
	if paired(a, bFar, w, p) {
		t.Fatal("non-adjacent indices must not pair")
	}
	bOther := b
	bOther.SupplierIndex = 1
	if paired(a, bOther, w, p) {
		t.Fatal("different suppliers must not pair")
	}
	short := Subperiod{Index: 2, SupplierIndex: 0, Interval: ivl(3, 3.5)}
	if paired(a, short, w, p) {
		t.Fatal("0.5 > 4-3 is false; must not pair")
	}
}

func TestCheckSupplierDisjointnessCensus(t *testing.T) {
	gs := []LGroup{
		{SupplierIndex: 0, Supplier: ivl(0, 2), Members: make([]Subperiod, 1)},
		{SupplierIndex: 0, Supplier: ivl(1, 3), Members: make([]Subperiod, 2)}, // overlaps previous
		{SupplierIndex: 1, Supplier: ivl(0, 10), Members: make([]Subperiod, 1)},
	}
	r := CheckSupplierDisjointness(gs)
	if r.Groups != 3 || r.Pairs != 1 || r.Intersections != 1 || r.OverlapTime != 1 {
		t.Fatalf("census = %+v", r)
	}
	if r.String() == "" {
		t.Fatal("empty String")
	}
}

// The Lemma 2 reconstruction: with the default parameterization, measure
// the intersection census on a corpus of runs and require that overlap is
// rare-to-absent (the lemma claims zero under the paper's exact
// constants; our reconstruction tracks how close the default gets — E11
// sweeps alternatives).
func TestSupplierDisjointnessOnCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var total IntersectionReport
	for trial := 0; trial < 20; trial++ {
		l := smallItemInstance(rng, 120, 12, 2+rng.Float64()*6)
		res := packing.MustRun(packing.NewFirstFit(), l, nil)
		_, groups := groupsFor(t, res, DefaultSupplierParams())
		r := CheckSupplierDisjointness(groups)
		total.Groups += r.Groups
		total.Intersections += r.Intersections
		total.OverlapTime += r.OverlapTime
	}
	if total.Groups == 0 {
		t.Fatal("corpus produced no l-groups; machinery vacuous")
	}
	// The measured census is reported; a high intersection rate would
	// signal the reconstruction diverges badly from the paper's lemma.
	if frac := float64(total.Intersections) / float64(total.Groups); frac > 0.25 {
		t.Fatalf("supplier periods intersect too often under default params: %d/%d (%.2f)",
			total.Intersections, total.Groups, frac)
	}
}

func TestMeasureAmortizedLevelPositiveAndAboveBound(t *testing.T) {
	l := workload.FirstFitSmallItemStress(8, 6, 3)
	res := packing.MustRun(packing.NewFirstFit(), l, nil)
	sps, groups := groupsFor(t, res, DefaultSupplierParams())
	rep := MeasureAmortizedLevel(res, sps, groups)
	if rep.Length <= 0 {
		t.Fatal("no measured length")
	}
	if rep.Level() <= 0 {
		t.Fatal("no measured demand")
	}
	if rep.Level() < rep.PaperBound() {
		t.Fatalf("measured amortized level %.4f below the paper-shaped bound %.4f",
			rep.Level(), rep.PaperBound())
	}
}

func ivl(lo, hi float64) interval.Interval {
	return interval.Interval{Lo: lo, Hi: hi}
}
