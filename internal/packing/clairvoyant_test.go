package packing

import (
	"math/rand"
	"slices"
	"testing"

	"dbp/internal/item"
)

func TestNextKFitOneEqualsNextFit(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 10; trial++ {
		l := randomInstance(rng, 120, 8)
		nf := MustRun(NewNextFit(), l, nil)
		nk := MustRun(NewNextKFit(1), l, nil)
		if nf.TotalUsage != nk.TotalUsage || nf.NumBins() != nk.NumBins() {
			t.Fatalf("NextKFit(1) != NextFit: usage %g vs %g", nk.TotalUsage, nf.TotalUsage)
		}
		if !slices.Equal(nf.Server, nk.Server) {
			t.Fatal("assignments differ")
		}
	}
}

func TestNextKFitInterpolatesTowardFirstFit(t *testing.T) {
	// On the Section VIII-style instance, more available bins means the
	// slivers can keep joining earlier bins.
	var l item.List
	n := 12
	for i := 0; i < n; i++ {
		l = append(l,
			mk(item.ID(2*i+1), 0.5, 0, 1),
			mk(item.ID(2*i+2), 1.0/(2.0*float64(n)), 0, 8),
		)
	}
	u1 := MustRun(NewNextKFit(1), l, nil).TotalUsage
	u4 := MustRun(NewNextKFit(4), l, nil).TotalUsage
	ff := MustRun(NewFirstFit(), l, nil).TotalUsage
	if !(ff <= u4 && u4 < u1) {
		t.Fatalf("expected FF (%g) <= NF4 (%g) < NF1 (%g)", ff, u4, u1)
	}
}

func TestNextKFitRetiresOldest(t *testing.T) {
	l := item.List{
		mk(1, 0.6, 0, 10), // bin 0 (available)
		mk(2, 0.6, 1, 10), // bin 1 (available; k=2)
		mk(3, 0.6, 2, 10), // fits neither -> retire bin 0, open bin 2
		mk(4, 0.3, 3, 10), // fits bin 1 (0.9) and bin 2 (0.9); bin 0 retired
	}
	res := MustRun(NewNextKFit(2), l, nil)
	if serverOf(res, 4) != 1 {
		t.Fatalf("item 4 in bin %d, want 1 (bin 0 must be retired)", serverOf(res, 4))
	}
}

func TestAlmostWorstFit(t *testing.T) {
	l := item.List{
		mk(1, 0.8, 0, 10), // bin 0, gap 0.2
		mk(2, 0.5, 0, 10), // bin 1, gap 0.5
		mk(3, 0.3, 0, 10), // fits neither? 0.8+0.3>1; 0.5+0.3<=1 -> bin 1 only... need 3 bins for a clean test
	}
	l = item.List{
		mk(1, 0.7, 0, 10), // bin 0, gap 0.3
		mk(2, 0.5, 0, 10), // bin 1, gap 0.5
		mk(3, 0.6, 0, 10), // bin 2 (fits none), gap 0.4
		mk(4, 0.2, 1, 10), // fits all: gaps 0.3, 0.5, 0.4 -> emptiest bin1, second bin2
	}
	res := MustRun(&almostWorstFit{}, l, nil)
	if serverOf(res, 4) != 2 {
		t.Fatalf("AWF put probe in bin %d, want 2 (second-emptiest)", serverOf(res, 4))
	}
	// Single fitting bin: fall back to it.
	l2 := item.List{
		mk(1, 0.9, 0, 10),
		mk(2, 0.05, 1, 10),
	}
	res2 := MustRun(&almostWorstFit{}, l2, nil)
	if serverOf(res2, 2) != 0 {
		t.Fatal("AWF must fall back to the only fitting bin")
	}
}

func TestAlignFitRequiresClairvoyance(t *testing.T) {
	l := item.List{mk(1, 0.5, 0, 1)}
	defer func() {
		if recover() == nil {
			t.Fatal("AlignFit must panic without Options.Clairvoyant")
		}
	}()
	// First item opens a bin (Place not called... Place IS called with
	// empty open list; the panic must fire on the NaN departure).
	MustRun(&alignFit{}, l, nil)
}

func TestAlignFitAlignsDepartures(t *testing.T) {
	l := item.List{
		mk(1, 0.4, 0, 10), // bin 0, horizon 10
		mk(2, 0.4, 0, 3),  // placed by align: no bins fit both? bin0 fits (0.8): |10-3|=7; new bin? Align only picks among fitting -> joins bin 0.
	}
	// Construct a discriminating case: two open bins with different
	// horizons, a new item whose departure matches the second.
	l = item.List{
		mk(1, 0.6, 0, 10), // bin 0, horizon 10
		mk(2, 0.6, 0, 3),  // bin 1 (0.6+0.6 > 1), horizon 3
		mk(3, 0.3, 1, 3),  // fits both; |10-3|=7 vs |3-3|=0 -> bin 1
	}
	res := MustRun(&alignFit{}, l, &Options{Clairvoyant: true})
	if serverOf(res, 3) != 1 {
		t.Fatalf("AlignFit put item in bin %d, want 1", serverOf(res, 3))
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestNoExtendFitPrefersFreeRides(t *testing.T) {
	l := item.List{
		mk(1, 0.6, 0, 10), // bin 0, horizon 10
		mk(2, 0.6, 0, 3),  // bin 1, horizon 3
		mk(3, 0.3, 1, 5),  // extends bin 1 (5 > 3) but not bin 0 (5 <= 10) -> bin 0
	}
	res := MustRun(newNoExtendFit(), l, &Options{Clairvoyant: true})
	if serverOf(res, 3) != 0 {
		t.Fatalf("NoExtendFit put item in bin %d, want 0 (free ride)", serverOf(res, 3))
	}
	// When every placement extends, fall back to First Fit.
	l2 := item.List{
		mk(1, 0.6, 0, 2),
		mk(2, 0.3, 1, 9), // extends bin 0; no alternative -> bin 0 anyway
	}
	res2 := MustRun(newNoExtendFit(), l2, &Options{Clairvoyant: true})
	if serverOf(res2, 2) != 0 {
		t.Fatal("fallback must use First Fit")
	}
}

// Clairvoyant baselines should (usually) beat online policies on bimodal
// workloads where aligning departures matters.
func TestClairvoyanceHelpsOnBimodalWorkload(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	better := 0
	trials := 12
	for trial := 0; trial < trials; trial++ {
		var l item.List
		for i := 0; i < 150; i++ {
			a := rng.Float64() * 20
			dur := 1.0
			if rng.Float64() < 0.3 {
				dur = 10
			}
			l = append(l, mk(item.ID(i+1), 0.05+rng.Float64()*0.45, a, a+dur))
		}
		ff := MustRun(NewFirstFit(), l, nil)
		cl := MustRun(newNoExtendFit(), l, &Options{Clairvoyant: true})
		if err := cl.Verify(); err != nil {
			t.Fatal(err)
		}
		if cl.TotalUsage <= ff.TotalUsage {
			better++
		}
	}
	if better < trials/2 {
		t.Fatalf("clairvoyant baseline beat FF only %d/%d times", better, trials)
	}
}
