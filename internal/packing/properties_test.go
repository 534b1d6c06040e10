package packing

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dbp/internal/item"
)

// allPolicies returns fresh instances of every standard policy for
// property testing.
func allPolicies() []Algorithm {
	out := make([]Algorithm, 0, 10)
	for _, a := range Standard() {
		out = append(out, a)
	}
	return out
}

// Property: every policy produces a physically valid packing on random
// instances (Verify passes), with the universal objective bounds:
// span <= usage, usage <= sum of item durations (each item alone can keep
// at most its own duration of bin time alive... not true in general — a
// bin can outlive any single item only by containing others, so the sum of
// durations bounds total usage only for Any Fit? No: a bin's usage is at
// most the sum of its items' durations (its usage period is covered by
// their intervals since the bin is never empty while open). That holds for
// every algorithm.)
func TestAllPoliciesValidOnRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		l := randomInstance(rng, 120, 10)
		span := l.Span()
		var sumDur float64
		for _, it := range l {
			sumDur += it.Duration()
		}
		for _, algo := range allPolicies() {
			res, err := Run(algo, l, &Options{Validate: trial == 0})
			if err != nil {
				t.Fatalf("%s: %v", algo.Name(), err)
			}
			if err := res.Verify(); err != nil {
				t.Fatalf("%s: %v", algo.Name(), err)
			}
			if res.TotalUsage < span-1e-9 {
				t.Fatalf("%s: usage %g below span %g", algo.Name(), res.TotalUsage, span)
			}
			if res.TotalUsage > sumDur+1e-9 {
				t.Fatalf("%s: usage %g above total item duration %g", algo.Name(), res.TotalUsage, sumDur)
			}
			if res.NumBins() > len(l) {
				t.Fatalf("%s: more bins than items", algo.Name())
			}
			if res.MaxConcurrentOpen > res.NumBins() {
				t.Fatalf("%s: peak open exceeds bins used", algo.Name())
			}
		}
	}
}

// Property: each bin's usage period is covered by its items' active
// intervals (a bin is never open while empty).
func TestBinNeverOpenWhileEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		l := randomInstance(rng, 100, 6)
		for _, algo := range allPolicies() {
			res := MustRun(algo, l, nil)
			for _, b := range res.Bins {
				cov := b.Items.Span()
				if math.Abs(cov-b.Usage()) > 1e-9 {
					t.Fatalf("%s bin %d: usage %g but items span %g", algo.Name(), b.Index, b.Usage(), cov)
				}
			}
		}
	}
}

// Property: Any Fit algorithms (FF, BF, WF, LF, RF) open a new bin only
// when no open bin fits. Verified post-hoc: whenever an item opened bin k,
// every other bin open at that instant lacked room for it.
func TestAnyFitNeverOpensNeedlessly(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	anyFit := []Algorithm{NewFirstFit(), NewBestFit(), NewWorstFit(), NewLastFit(), &randomFit{seed: 3}}
	for trial := 0; trial < 10; trial++ {
		l := randomInstance(rng, 120, 8)
		for _, algo := range anyFit {
			res := MustRun(algo, l, nil)
			for _, b := range res.Bins {
				first := b.Items[0]
				t0 := first.Arrival
				for _, other := range res.Bins {
					if other.Index == b.Index || !other.UsagePeriod().Contains(t0) {
						continue
					}
					// other was open when b was opened for first;
					// it must not have had room.
					if other.LevelAt(t0)+first.Size <= 1.0-1e-9 {
						// Careful: other.LevelAt(t0) includes items that
						// arrived at t0 *after* this placement. Recompute
						// using only items placed strictly before.
						var lv float64
						for _, p := range other.Items {
							if p.Arrival < t0 || (p.Arrival == t0 && p.ID < first.ID) {
								if p.Interval().Contains(t0) {
									lv += p.Size
								}
							}
						}
						if lv+first.Size <= 1.0-1e-9 {
							t.Fatalf("%s: bin %d opened at t=%g for item %d though bin %d had level %g",
								algo.Name(), b.Index, t0, first.ID, other.Index, lv)
						}
					}
				}
			}
		}
	}
}

// Property: First Fit places each item in the lowest-indexed bin that had
// room, verified post-hoc from the server records.
func TestFirstFitLowestIndexInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		l := randomInstance(rng, 150, 8)
		res := MustRun(NewFirstFit(), l, nil)
		for _, b := range res.Bins {
			for _, p := range b.Items {
				for _, lower := range res.Bins {
					if lower.Index >= b.Index {
						break
					}
					if !lower.UsagePeriod().Contains(p.Arrival) {
						continue
					}
					var lv float64
					for _, q := range lower.Items {
						if (q.Arrival < p.Arrival || (q.Arrival == p.Arrival && q.ID < p.ID)) && q.Interval().Contains(p.Arrival) {
							lv += q.Size
						}
					}
					if lv+p.Size <= 1.0-1e-9 {
						t.Fatalf("FF violated: item %d went to bin %d though bin %d (level %g) fit at t=%g",
							p.ID, b.Index, lower.Index, lv, p.Arrival)
					}
				}
			}
		}
	}
}

// Property: objectives are invariant under uniform time scaling.
func TestUsageScalesLinearlyWithTime(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := randomInstance(rng, 60, 5)
		k := 1 + rng.Float64()*7
		base := MustRun(NewFirstFit(), l, nil)
		scaled := MustRun(NewFirstFit(), l.Scale(k), nil)
		if math.Abs(scaled.TotalUsage-k*base.TotalUsage) > 1e-6*(1+scaled.TotalUsage) {
			return false
		}
		return scaled.NumBins() == base.NumBins()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: with all items arriving and departing together, First Fit
// usage equals (number of classical FF bins) * duration.
func TestDegenerateSimultaneousBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(40)
		l := make(item.List, n)
		for i := range l {
			l[i] = mk(item.ID(i+1), 0.05+rng.Float64()*0.95, 0, 7)
		}
		res := MustRun(NewFirstFit(), l, nil)
		if math.Abs(res.TotalUsage-float64(res.NumBins())*7) > 1e-9 {
			t.Fatalf("usage %g != bins %d * 7", res.TotalUsage, res.NumBins())
		}
		if res.MaxConcurrentOpen != res.NumBins() {
			t.Fatal("all bins must be concurrently open in the batch case")
		}
	}
}
