package workload

import (
	"math"
	"math/rand"
	"testing"

	"dbp/internal/item"
	"dbp/internal/opt"
	"dbp/internal/packing"
)

func TestDistributionBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dists := []Dist{
		constantDist{V: 3},
		uniformDist{Lo: 1, Hi: 5},
		truncExpDist{Mean: 2, Lo: 1, Hi: 8},
		paretoDist{Alpha: 1.5, Lo: 1, Hi: 16},
		bimodalDist{A: constantDist{V: 1}, B: constantDist{V: 9}, PA: 0.5},
		choiceDist{Values: []float64{0.25, 0.5, 1}},
		choiceDist{Values: []float64{0.25, 0.5}, Weights: []float64{9, 1}},
	}
	for _, d := range dists {
		lo, hi := d.Bounds()
		for i := 0; i < 2000; i++ {
			x := d.Sample(rng)
			if x < lo-1e-12 || x > hi+1e-12 {
				t.Fatalf("%v sampled %g outside [%g, %g]", d, x, lo, hi)
			}
		}
		if d.String() == "" {
			t.Errorf("%T has empty String", d)
		}
	}
}

func TestTruncExpDegenerateMean(t *testing.T) {
	// Mean far outside [Lo, Hi]: fallback clamp must stay in range.
	d := truncExpDist{Mean: 1e9, Lo: 1, Hi: 2}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		x := d.Sample(rng)
		if x < 1 || x > 2 {
			t.Fatalf("sample %g out of range", x)
		}
	}
}

func TestChoiceWeights(t *testing.T) {
	d := choiceDist{Values: []float64{0.1, 0.9}, Weights: []float64{99, 1}}
	rng := rand.New(rand.NewSource(3))
	heavy := 0
	for i := 0; i < 10000; i++ {
		if d.Sample(rng) == 0.1 {
			heavy++
		}
	}
	if heavy < 9700 {
		t.Errorf("weight 99:1 produced only %d/10000 heavy samples", heavy)
	}
}

func TestGenerateDeterministicAndValid(t *testing.T) {
	c := UniformConfig(500, 2.0, 8, 42)
	a := Generate(c)
	b := Generate(c)
	if len(a) != 500 {
		t.Fatalf("len = %d", len(a))
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !sameItem(a[i], b[i]) {
			t.Fatal("same seed must generate identical instances")
		}
		if i > 0 && a[i].Arrival < a[i-1].Arrival {
			t.Fatal("arrivals must be non-decreasing")
		}
	}
	if mu := a.Mu(); mu > c.MuBound()+1e-9 {
		t.Fatalf("realized mu %g exceeds bound %g", mu, c.MuBound())
	}
	diff := Generate(Config{N: 500, Rate: 2, Seed: 43, Size: c.Size, Duration: c.Duration})
	same := true
	for i := range a {
		if !sameItem(a[i], diff[i]) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical instances")
	}
}

func sameItem(a, b item.Item) bool {
	return a.ID == b.ID && a.Size == b.Size && a.Arrival == b.Arrival && a.Departure == b.Departure
}

func TestGenerateVec(t *testing.T) {
	c := UniformConfig(100, 2.0, 4, 7)
	l := GenerateVec(c, 2)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, it := range l {
		if it.Dim() != 2 {
			t.Fatal("expected 2-D items")
		}
		if it.Size != math.Max(it.Sizes[0], it.Sizes[1]) {
			t.Fatal("Size must be max component")
		}
	}
}

func TestPresetConfigs(t *testing.T) {
	for _, c := range []Config{
		UniformConfig(50, 1, 4, 1),
		paretoConfig(50, 1, 4, 1),
		BimodalConfig(50, 1, 4, 1),
		SmallItemConfig(50, 1, 4, 1),
	} {
		l := Generate(c)
		if err := l.Validate(); err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if c.MuBound() != 4 {
			t.Fatalf("%v: mu bound %g", c, c.MuBound())
		}
	}
}

func TestGeneratePanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Generate(Config{N: 0, Rate: 1, Size: constantDist{V: 0.5}, Duration: constantDist{V: 1}})
}

func TestNextFitAdversaryExactPaperNumbers(t *testing.T) {
	for _, n := range []int{4, 10, 50} {
		for _, mu := range []float64{2, 8} {
			l := NextFitAdversary(n, mu)
			if err := l.Validate(); err != nil {
				t.Fatal(err)
			}
			if got := l.Mu(); got != mu {
				t.Fatalf("instance mu = %g, want %g", got, mu)
			}
			nf := packing.MustRun(packing.NewNextFit(), l, nil)
			if nf.NumBins() != n {
				t.Fatalf("NF opened %d bins, want %d", nf.NumBins(), n)
			}
			if math.Abs(nf.TotalUsage-float64(n)*mu) > 1e-9 {
				t.Fatalf("NF usage = %g, want n*mu = %g", nf.TotalUsage, float64(n)*mu)
			}
			// Paper's optimal: n/2 + mu (n even).
			optTotal, ok := opt.TotalExact(l)
			if !ok {
				t.Fatal("exact OPT did not finish")
			}
			want := float64(n)/2 + mu
			if math.Abs(optTotal-want) > 1e-9 {
				t.Fatalf("OPT = %g, want n/2 + mu = %g", optTotal, want)
			}
			ratio := nf.TotalUsage / optTotal
			if math.Abs(ratio-NextFitAdversaryRatioLimit(n, mu)) > 1e-9 {
				t.Fatalf("ratio %g != analytic %g", ratio, NextFitAdversaryRatioLimit(n, mu))
			}
		}
	}
}

func TestNextFitAdversaryRatioApproaches2Mu(t *testing.T) {
	mu := 8.0
	r1 := NextFitAdversaryRatioLimit(16, mu)
	r2 := NextFitAdversaryRatioLimit(4096, mu)
	if !(r1 < r2 && r2 < 2*mu) {
		t.Fatalf("ratio must increase toward 2mu: %g, %g", r1, r2)
	}
	if 2*mu-r2 > 0.1 {
		t.Fatalf("ratio %g not close to 2mu = %g at n=4096", r2, 2*mu)
	}
}

func TestAnyFitTrapPinsFFAndBF(t *testing.T) {
	n, mu := 10, 6.0
	l := AnyFitTrap(n, mu)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, algo := range []packing.Algorithm{packing.NewFirstFit(), packing.NewBestFit()} {
		res := packing.MustRun(algo, l, nil)
		if res.NumBins() != n {
			t.Fatalf("%s opened %d bins, want %d", algo.Name(), res.NumBins(), n)
		}
		if math.Abs(res.TotalUsage-float64(n)*mu) > 1e-9 {
			t.Fatalf("%s usage = %g, want n*mu = %g", algo.Name(), res.TotalUsage, float64(n)*mu)
		}
	}
	optTotal, ok := opt.TotalExact(l)
	if !ok {
		t.Fatal("exact OPT did not finish")
	}
	want := float64(n) + mu - 1
	if math.Abs(optTotal-want) > 1e-9 {
		t.Fatalf("OPT = %g, want n + mu - 1 = %g", optTotal, want)
	}
}

func TestAnyFitTrapWorstAndNextFitEscape(t *testing.T) {
	n, mu := 10, 6.0
	l := AnyFitTrap(n, mu)
	ff := packing.MustRun(packing.NewFirstFit(), l, nil)
	for _, algo := range []packing.Algorithm{packing.NewWorstFit(), packing.NewNextFit()} {
		res := packing.MustRun(algo, l, nil)
		if res.TotalUsage >= ff.TotalUsage {
			t.Fatalf("%s (%g) should escape the FF trap (%g)", algo.Name(), res.TotalUsage, ff.TotalUsage)
		}
	}
}

func TestAnyFitTrapRatioApproachesMu(t *testing.T) {
	mu := 8.0
	l := AnyFitTrap(200, mu)
	ff := packing.MustRun(packing.NewFirstFit(), l, nil)
	lb := math.Max(opt.DemandLowerBound(l), opt.SpanLowerBound(l))
	// OPT <= n + mu - 1 + (tiny mass corrections); use the analytic value.
	optTotal := float64(200) + mu - 1
	ratio := ff.TotalUsage / optTotal
	if ratio < mu*0.9 {
		t.Fatalf("trap ratio %g too far below mu = %g", ratio, mu)
	}
	if ratio > mu+1 {
		t.Fatalf("trap ratio %g above mu+1", ratio)
	}
	_ = lb
}

func TestBestFitRelayShape(t *testing.T) {
	k, rounds, mu := 8, 6, 4.0
	l := BestFitRelay(k, rounds, mu)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := l.Mu(); math.Abs(got-mu) > 1e-9 {
		t.Fatalf("instance mu = %g, want %g", got, mu)
	}
	bf := packing.MustRun(packing.NewBestFit(), l, nil)
	if err := bf.Verify(); err != nil {
		t.Fatal(err)
	}
	// The relay must keep the k victims alive for the whole horizon:
	// BF usage ~ k * horizon.
	horizon := l.PackingPeriod().Length()
	if bf.TotalUsage < 0.8*float64(k)*horizon {
		t.Fatalf("BF usage %g; relay failed to keep %d bins alive over %g", bf.TotalUsage, k, horizon)
	}
	// First Fit on the same instance is clearly cheaper (it is partially
	// caught by the spikes, but consolidates tinies into low bins).
	ff := packing.MustRun(packing.NewFirstFit(), l, nil)
	if ff.TotalUsage >= 0.75*bf.TotalUsage {
		t.Fatalf("FF usage %g not clearly better than BF %g on the BF adversary", ff.TotalUsage, bf.TotalUsage)
	}
}

func TestBestFitRelayRatioGrowsWithK(t *testing.T) {
	mu := 4.0
	var prev float64
	for _, k := range []int{4, 8, 16} {
		l := BestFitRelay(k, 6, mu)
		bf := packing.MustRun(packing.NewBestFit(), l, nil)
		// Heuristic bracket only (exactLimit 1): the spike segments make
		// exact per-instant packing expensive and the FFD upper bound is
		// tight enough here.
		b := opt.Total(l, 1)
		ratio := bf.TotalUsage / b.Upper // conservative: against OPT's upper bracket
		if ratio <= prev {
			t.Fatalf("BF ratio did not grow with k: k=%d ratio=%g prev=%g", k, ratio, prev)
		}
		prev = ratio
	}
	if prev < 1.5 {
		t.Fatalf("BF relay ratio at k=16 only %g; construction ineffective", prev)
	}
}

func TestFirstFitSmallItemStress(t *testing.T) {
	l := FirstFitSmallItemStress(6, 5, 4)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	res := packing.MustRun(packing.NewFirstFit(), l, nil)
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	if res.NumBins() < 2 {
		t.Fatal("stress instance should need multiple bins")
	}
}

func TestAdversaryPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NextFitAdversary(2, 2) },
		func() { NextFitAdversary(4, 0.5) },
		func() { AnyFitTrap(1, 2) },
		func() { BestFitRelay(1, 1, 4) },
		func() { BestFitRelay(4, 1, 1.5) },
		func() { FirstFitSmallItemStress(0, 1, 4) },
		func() { GenerateVec(UniformConfig(10, 1, 2, 1), 1) },
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

var _ = item.List{} // keep the import meaningful if refactors drop uses

func TestGenerateBursty(t *testing.T) {
	c := BurstyConfig{
		Config:      UniformConfig(2000, 1, 4, 5),
		BurstFactor: 10,
		MeanCalm:    20,
		MeanBurst:   5,
	}
	l := GenerateBursty(c)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	// Burstiness shows up as a heavier tail of short inter-arrival gaps
	// than a plain Poisson stream of the same total count and span.
	plain := Generate(Config{N: 2000, Rate: float64(2000) / l.PackingPeriod().Length(),
		Size: c.Size, Duration: c.Duration, Seed: 5})
	burstShort := shortGapFraction(l, 0.05)
	plainShort := shortGapFraction(plain, 0.05)
	if burstShort <= plainShort {
		t.Fatalf("bursty stream not burstier: %.3f vs %.3f short-gap fraction", burstShort, plainShort)
	}
	l2 := GenerateBursty(c)
	for i := range l {
		if !sameItem(l[i], l2[i]) {
			t.Fatal("bursty generation must be deterministic")
		}
	}
}

func shortGapFraction(l item.List, cut float64) float64 {
	s := l.SortedByArrival()
	short := 0
	for i := 1; i < len(s); i++ {
		if s[i].Arrival-s[i-1].Arrival < cut {
			short++
		}
	}
	return float64(short) / float64(len(s)-1)
}

func TestGenerateBurstyPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	GenerateBursty(BurstyConfig{Config: UniformConfig(10, 1, 2, 1), BurstFactor: 0.5, MeanCalm: 1, MeanBurst: 1})
}
