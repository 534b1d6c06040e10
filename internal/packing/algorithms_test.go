package packing

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"dbp/internal/item"
)

// serverOf returns the index of the bin that served the item with the
// given ID, or -1.
func serverOf(r *Result, id item.ID) int {
	for i, it := range r.Items {
		if it.ID == id {
			return r.Server[i]
		}
	}
	return -1
}

// assignment is a run's item -> bin map, the form Replay takes.
func assignment(r *Result) map[item.ID]int {
	m := make(map[item.ID]int, len(r.Items))
	for i, it := range r.Items {
		m[it.ID] = r.Server[i]
	}
	return m
}

func mk(id item.ID, size, a, d float64) item.Item {
	return item.Item{ID: id, Size: size, Arrival: a, Departure: d}
}

// handInstance: A(0.5,[0,2)), B(0.6,[1,3)), C(0.4,[1,4)) distinguishes
// First Fit from Best Fit (hand-computed usages 6 vs 5).
func handInstance() item.List {
	return item.List{
		mk(1, 0.5, 0, 2),
		mk(2, 0.6, 1, 3),
		mk(3, 0.4, 1, 4),
	}
}

func TestFirstFitHandExample(t *testing.T) {
	res := MustRun(NewFirstFit(), handInstance(), nil)
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	if res.NumBins() != 2 {
		t.Fatalf("bins = %d, want 2", res.NumBins())
	}
	// C (0.4) fits bin 0 (level 0.5 at t=1), so FF puts it there.
	if serverOf(res, 3) != 0 {
		t.Fatalf("FF put item 3 in bin %d, want 0", serverOf(res, 3))
	}
	if res.TotalUsage != 6 {
		t.Fatalf("FF usage = %g, want 6 (bin0 [0,4), bin1 [1,3))", res.TotalUsage)
	}
	if res.MaxConcurrentOpen != 2 {
		t.Fatalf("peak open = %d, want 2", res.MaxConcurrentOpen)
	}
}

func TestBestFitHandExample(t *testing.T) {
	res := MustRun(NewBestFit(), handInstance(), nil)
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	// At t=1 gaps are bin0: 0.5, bin1: 0.4; Best Fit prefers the tighter
	// bin 1 for C (0.4).
	if serverOf(res, 3) != 1 {
		t.Fatalf("BF put item 3 in bin %d, want 1", serverOf(res, 3))
	}
	if res.TotalUsage != 5 {
		t.Fatalf("BF usage = %g, want 5 (bin0 [0,2), bin1 [1,4))", res.TotalUsage)
	}
}

func TestWorstFitPrefersEmptiest(t *testing.T) {
	// Bin 0 filled to 0.8, bin 1 to 0.2; a 0.1 item goes to bin 1 under
	// Worst Fit, bin 0 under Best Fit, bin 0 under First Fit.
	l := item.List{
		mk(1, 0.8, 0, 10),
		mk(2, 0.9, 0, 10), // forces bin 1 open
		mk(3, 0.1, 1, 10), // WF target probe — placed after bin levels drop
	}
	// Drop bin 1's level to 0.2 by replacing the big item: use departures.
	l = item.List{
		mk(1, 0.8, 0, 10),
		mk(2, 0.9, 0, 2),
		mk(4, 0.2, 1, 10), // joins bin 1 under any policy? No: FF puts it in bin 0? 0.8+0.2=1.0 fits bin 0.
	}
	_ = l
	// Simpler deterministic construction: two bins opened by oversize
	// pairs, then probe.
	l = item.List{
		mk(1, 0.8, 0, 10), // bin 0
		mk(2, 0.3, 0, 10), // does not fit bin 0 -> bin 1
		mk(3, 0.1, 1, 10), // fits both; gaps: bin0 0.2, bin1 0.7
	}
	wf := MustRun(NewWorstFit(), l, nil)
	if serverOf(wf, 3) != 1 {
		t.Fatalf("WF put probe in bin %d, want 1", serverOf(wf, 3))
	}
	ff := MustRun(NewFirstFit(), l, nil)
	if serverOf(ff, 3) != 0 {
		t.Fatalf("FF put probe in bin %d, want 0", serverOf(ff, 3))
	}
	bf := MustRun(NewBestFit(), l, nil)
	if serverOf(bf, 3) != 0 {
		t.Fatalf("BF put probe in bin %d, want 0", serverOf(bf, 3))
	}
}

func TestLastFitPrefersNewest(t *testing.T) {
	l := item.List{
		mk(1, 0.6, 0, 10), // bin 0
		mk(2, 0.6, 0, 10), // bin 1
		mk(3, 0.2, 1, 10), // fits both; LF -> bin 1, FF -> bin 0
	}
	lf := MustRun(NewLastFit(), l, nil)
	if serverOf(lf, 3) != 1 {
		t.Fatalf("LF put probe in bin %d, want 1", serverOf(lf, 3))
	}
}

func TestNextFitNeverRevisits(t *testing.T) {
	// Item 2 does not fit bin 0, so bin 0 becomes unavailable forever;
	// item 3 would fit bin 0 but Next Fit must open/use the available bin.
	l := item.List{
		mk(1, 0.5, 0, 10),
		mk(2, 0.7, 1, 10), // forces new available bin 1
		mk(3, 0.2, 2, 10), // fits bin 0 (0.5) and bin 1 (0.7): NF -> bin 1
	}
	nf := MustRun(NewNextFit(), l, nil)
	if serverOf(nf, 3) != 1 {
		t.Fatalf("NF put item 3 in bin %d, want 1 (bin 0 is unavailable)", serverOf(nf, 3))
	}
	ff := MustRun(NewFirstFit(), l, nil)
	if serverOf(ff, 3) != 0 {
		t.Fatalf("FF put item 3 in bin %d, want 0", serverOf(ff, 3))
	}
}

func TestNextFitAvailableBinCloses(t *testing.T) {
	// The available bin closes by departures; the next arrival must open a
	// fresh bin without crashing on the stale reference.
	l := item.List{
		mk(1, 0.5, 0, 1),
		mk(2, 0.5, 2, 3),
	}
	nf := MustRun(NewNextFit(), l, nil)
	if nf.NumBins() != 2 {
		t.Fatalf("bins = %d, want 2", nf.NumBins())
	}
	if nf.TotalUsage != 2 {
		t.Fatalf("usage = %g, want 2", nf.TotalUsage)
	}
}

func TestNextFitPaperConstructionSmall(t *testing.T) {
	// Section VIII with n=3, mu=4: pairs (1/2, 1/(2n)) arriving in
	// sequence at t=0; halves depart at 1, slivers at mu.
	n, mu := 3, 4.0
	var l item.List
	for i := 0; i < n; i++ {
		l = append(l,
			mk(item.ID(2*i+1), 0.5, 0, 1),
			mk(item.ID(2*i+2), 1.0/(2.0*float64(n)), 0, mu),
		)
	}
	nf := MustRun(NewNextFit(), l, nil)
	// Each pair opens its own bin: the next pair's 1/2 does not fit in a
	// bin at level 1/2 + 1/(2n) ... it would: 0.5+0.5+1/6 > 1. Right.
	if nf.NumBins() != n {
		t.Fatalf("NF bins = %d, want %d", nf.NumBins(), n)
	}
	if nf.TotalUsage != float64(n)*mu {
		t.Fatalf("NF usage = %g, want n*mu = %g", nf.TotalUsage, float64(n)*mu)
	}
	// First Fit on the same instance packs all slivers with the first
	// pair's bin and pairs of halves together? FF: item1(0.5)->bin0;
	// item2(1/6)->bin0; item3(0.5)->bin1 (0.5+1/6+0.5 > 1); item4->bin0?
	// level 2/3, +1/6 = 5/6 fits -> bin0... FF does far better than NF.
	ff := MustRun(NewFirstFit(), l, nil)
	if ff.TotalUsage >= nf.TotalUsage {
		t.Fatalf("FF usage %g must beat NF usage %g on the NF adversary", ff.TotalUsage, nf.TotalUsage)
	}
}

func TestHybridFirstFitClassSeparation(t *testing.T) {
	// A large (0.6) and a small (0.3) item that would share a bin under
	// plain FF must occupy distinct bins under HybridFF(k=2).
	l := item.List{
		mk(1, 0.6, 0, 10),
		mk(2, 0.3, 0, 10),
	}
	h := MustRun(NewHybridFirstFit(2), l, nil)
	if h.NumBins() != 2 {
		t.Fatalf("HFF bins = %d, want 2 (classes must not mix)", h.NumBins())
	}
	ff := MustRun(NewFirstFit(), l, nil)
	if ff.NumBins() != 1 {
		t.Fatalf("FF bins = %d, want 1", ff.NumBins())
	}
	// Small items still share their class bin.
	l2 := item.List{
		mk(1, 0.3, 0, 10),
		mk(2, 0.3, 0, 10),
		mk(3, 0.6, 0, 10),
		mk(4, 0.4, 0, 10), // large class: > 1/2? 0.4 <= 1/2 -> small class; fits with the 0.3s? 0.3+0.3+0.4=1.0 yes
	}
	h2 := MustRun(NewHybridFirstFit(2), l2, nil)
	if h2.NumBins() != 2 {
		t.Fatalf("HFF bins = %d, want 2", h2.NumBins())
	}
	if serverOf(h2, 1) != serverOf(h2, 2) || serverOf(h2, 1) != serverOf(h2, 4) {
		t.Fatal("small items must share the small-class bin")
	}
}

// A stream's policy outlives most of the servers it opens, so Hybrid First
// Fit's class tags must not: 10k servers that open and close beside two
// long-lived ones leave the map within twice the open list (plus the one
// BinOpened adds after a sweep), and the saved state — which has always
// listed open servers only — round-trips through a restore unchanged.
func TestHybridFirstFitSweepsClosedTags(t *testing.T) {
	h := NewHybridFirstFit(2).(*hybridFirstFit)
	s := NewStream(h, 1, 1)
	s.Arrive(1, 0.6, nil, 0) // server 0, the large class
	s.Arrive(2, 0.3, nil, 0) // server 1, the small class
	for c := 0; c < 10_000; c++ {
		id, now := item.ID(c+3), float64(c+1)
		if _, opened, err := s.Arrive(id, 0.9, nil, now); err != nil || !opened {
			t.Fatalf("cycle %d: arrive opened %v, err %v", c, opened, err)
		}
		if _, closed, err := s.Depart(id, now); err != nil || !closed {
			t.Fatalf("cycle %d: depart closed %v, err %v", c, closed, err)
		}
		if open := s.OpenServers(); len(h.class) > 2*open+1 {
			t.Fatalf("cycle %d: %d class tags for %d open servers", c, len(h.class), open)
		}
	}
	st := h.SaveState()
	if want := map[int]int{0: 0, 1: 1}; !reflect.DeepEqual(st.Class, want) {
		t.Fatalf("saved classes %v, want %v", st.Class, want)
	}
	restored, err := RestoreStream(NewHybridFirstFit(2), s.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.Snapshot().PolicyState; got == nil || !reflect.DeepEqual(*got, st) {
		t.Fatalf("restored policy state %+v, saved %+v", got, st)
	}
	for _, str := range []*Stream{s, restored} {
		if srv, opened, err := str.Arrive(20_000, 0.3, nil, 20_000); err != nil || opened || srv != 1 {
			t.Fatalf("small arrival after the churn: server %d, opened %v, err %v; want the small-class server 1", srv, opened, err)
		}
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		size float64
		k    int
		want int
	}{
		{0.9, 2, 0}, {0.51, 2, 0}, {0.5, 2, 1}, {0.1, 2, 1},
		{0.9, 3, 0}, {0.5, 3, 1}, {0.4, 3, 1}, {1.0 / 3.0, 3, 2}, {0.1, 3, 2},
	}
	for _, c := range cases {
		if got := classify(c.size, c.k); got != c.want {
			t.Errorf("classify(%g, %d) = %d, want %d", c.size, c.k, got, c.want)
		}
	}
}

func TestHybridNextFitClassSeparation(t *testing.T) {
	l := item.List{
		mk(1, 0.6, 0, 10),
		mk(2, 0.3, 0, 10),
		mk(3, 0.3, 0, 10),
	}
	h := MustRun(newHybridNextFit(2), l, nil)
	if h.NumBins() != 2 {
		t.Fatalf("HNF bins = %d, want 2", h.NumBins())
	}
	if serverOf(h, 2) != serverOf(h, 3) {
		t.Fatal("small items must share the small-class available bin")
	}
}

func TestRandomFitReproducible(t *testing.T) {
	l := make(item.List, 0, 60)
	for i := 0; i < 60; i++ {
		l = append(l, mk(item.ID(i), 0.2, float64(i%7), float64(i%7)+5))
	}
	a := MustRun(&randomFit{seed: 7}, l, nil)
	b := MustRun(&randomFit{seed: 7}, l, nil)
	if !slices.Equal(a.Server, b.Server) {
		t.Fatal("same seed must reproduce the same packing")
	}
	c := MustRun(&randomFit{seed: 8}, l, nil)
	if slices.Equal(a.Server, c.Server) {
		t.Log("different seeds produced identical packings (possible but unlikely)")
	}
}

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) < 8 {
		t.Fatalf("expected at least 8 standard algorithms, got %v", names)
	}
	for _, n := range names {
		a, err := ByName(strings.ToUpper(n))
		if err != nil {
			t.Fatalf("ByName(%q): %v", n, err)
		}
		if a == nil {
			t.Fatalf("ByName(%q) returned nil", n)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name must error")
	}
	// Names is exactly Standard plus Vector (the experiments' 12-policy
	// sweep set must not drift), and the clairvoyant baselines stay
	// unreachable by name.
	std, vec := Standard(), Vector()
	if len(std) != 12 || len(names) != len(std)+len(vec) {
		t.Fatalf("%d standard + %d vector policies but %d names", len(std), len(vec), len(names))
	}
	for _, n := range names {
		if std[n] == nil && vec[n] == nil {
			t.Errorf("name %q is in neither Standard nor Vector", n)
		}
	}
	for n := range Clairvoyant() {
		if _, err := ByName(n); err == nil {
			t.Errorf("clairvoyant policy %q resolves through ByName", n)
		}
	}
}

func TestHybridPanicsOnBadK(t *testing.T) {
	for _, f := range []func(){
		func() { NewHybridFirstFit(1) },
		func() { newHybridNextFit(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for k < 2")
				}
			}()
			f()
		}()
	}
}
