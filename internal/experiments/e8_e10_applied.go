package experiments

import (
	"fmt"
	"sort"

	"dbp/internal/analysis"
	"dbp/internal/cloud"
	"dbp/internal/fanout"
	"dbp/internal/opt"
	"dbp/internal/packing"
	"dbp/internal/workload"
)

// runE8 dispatches synthetic cloud-gaming sessions (the paper's
// motivating application) and prices the resulting server fleet under
// pay-as-you-go billing at several granularities, showing that minimizing
// usage time minimizes renting cost and that the hourly-billing overhead
// vanishes as sessions grow long relative to the billing quantum.
func runE8(cfg Config) []*analysis.Table {
	n := 600
	if cfg.Quick {
		n = 150
	}
	rates := []float64{0.2, 0.5, 1.0}
	if cfg.Quick {
		rates = []float64{0.5}
	}

	t1 := analysis.NewTable("E8a: cloud gaming dispatch (GPU sessions, mu<=60)",
		"arrival rate", "policy", "servers", "peak", "usage (min)", "$/continuous", "$/hourly", "overhead%")
	for _, rate := range rates {
		l := fromSpec("gaming", n, rate, 0, cfg.Seed, 1)
		for _, algo := range []packing.Algorithm{packing.NewFirstFit(), packing.NewBestFit(), packing.NewNextFit()} {
			res := packing.MustRun(algo, l, nil)
			// Time unit is minutes; $0.90/hour GPU server.
			hourly := cloud.Cost(res, cloud.Hourly(0.90, 60))
			continuous := cloud.Cost(res, cloud.BillingModel{Granularity: 0, Rate: 0.90 / 60})
			t1.AddRow(rate, res.Algorithm, res.NumBins(), res.MaxConcurrentOpen,
				res.TotalUsage, continuous.Total, hourly.Total, 100*hourly.Overhead())
		}
	}

	t2 := analysis.NewTable("E8b: billing granularity vs idealized objective (First Fit)",
		"granularity (min)", "billed time", "usage time", "overhead%")
	l := fromSpec("gaming", n, 0.5, 0, cfg.Seed, 1)
	res := packing.MustRun(packing.NewFirstFit(), l, nil)
	for _, g := range []float64{120, 60, 15, 1, 0} {
		iv := cloud.Cost(res, cloud.BillingModel{Granularity: g, Rate: 1})
		t2.AddRow(g, iv.BilledTime, iv.UsageTime, 100*iv.Overhead())
	}
	t2.AddNote("granularity 0 = continuous billing = the MinUsageTime objective exactly")
	return []*analysis.Table{t1, t2}
}

// runE9 compares every policy on every registered statistical scenario
// across load levels, reporting mean conservative ratios — the practical
// counterpart of the theory: First Fit tracks the optimum closely while
// Next Fit and Last Fit trail. A scenario added to the workload registry
// appears here with no experiment change. The equal-duration rows are
// additionally checked against the Masoori et al. constant (First Fit's
// ratio collapses to ~2 when mu = 1).
func runE9(cfg Config) []*analysis.Table {
	mus := []float64{2, 8}
	rates := []float64{0.5, 2, 8}
	seeds := []int64{cfg.Seed, cfg.Seed + 1, cfg.Seed + 2}
	n := 150
	if cfg.Quick {
		mus = []float64{4}
		rates = []float64{2}
		seeds = seeds[:1]
		n = 60
	}

	var scens []string
	for _, s := range workload.Scenarios() {
		if s.Kind() == workload.KindStatistical {
			scens = append(scens, s.Name())
		}
	}

	t := analysis.NewTable("E9: mean conservative ratio (usage/OPT_lower) on registered statistical scenarios",
		"scenario", "mu", "rate", "FF", "BF", "WF", "LF", "NF", "HFF", "bins FF")
	// Build the (scenario, mu, rate) grid, then evaluate cells in parallel
	// — each cell is independent and the exact-OPT integrals dominate.
	type cell struct {
		scIdx int
		mu    float64
		rate  float64
	}
	var grid []cell
	for si := range scens {
		for _, mu := range mus {
			for _, rate := range rates {
				grid = append(grid, cell{si, mu, rate})
			}
		}
	}
	type cellResult struct {
		means  map[string]float64
		binsFF int
	}
	results := make([]cellResult, len(grid))
	// Each cell lands in its own slot, so the table is the same as a
	// sequential run's; a cell returns no error.
	_ = fanout.Each(len(grid), func(_, gi int) error {
		c := grid[gi]
		ratios := map[string][]float64{}
		binsFF := 0
		for _, seed := range seeds {
			l := fromSpec(scens[c.scIdx], n, c.rate, c.mu, seed, 1)
			b := opt.Total(l, opt.ExactLimit)
			for name, algo := range map[string]packing.Algorithm{
				"FF": packing.NewFirstFit(), "BF": packing.NewBestFit(),
				"WF": packing.NewWorstFit(), "LF": packing.NewLastFit(),
				"NF": packing.NewNextFit(), "HFF": packing.NewHybridFirstFit(2),
			} {
				res := packing.MustRun(algo, l, nil)
				ratios[name] = append(ratios[name], res.TotalUsage/b.Lower)
				if name == "FF" {
					binsFF = res.NumBins()
				}
			}
		}
		means := make(map[string]float64, len(ratios))
		for name, xs := range ratios {
			var sum float64
			for _, x := range xs {
				sum += x
			}
			means[name] = sum / float64(len(xs))
		}
		results[gi] = cellResult{means: means, binsFF: binsFF}
		return nil
	})
	eqBound, eqWorst := analysis.EqualDurationFirstFitBound(), 0.0
	for gi, c := range grid {
		m := results[gi].means
		t.AddRow(scens[c.scIdx], c.mu, c.rate, m["FF"], m["BF"], m["WF"], m["LF"], m["NF"], m["HFF"], results[gi].binsFF)
		if scens[c.scIdx] == "equalduration" && m["FF"] > eqWorst {
			eqWorst = m["FF"]
		}
	}
	t.AddNote("ratios vs OPT lower bracket: over-estimates of the true competitive ratio; relative ordering is the signal")
	t.AddNote(fmt.Sprintf("scenarios swept from the workload registry: %d statistical families", len(scens)))
	if eqWorst > eqBound {
		t.AddNote(fmt.Sprintf("VIOLATION: equalduration FF ratio %.4f exceeds the Masoori et al. reference %.4g", eqWorst, eqBound))
	} else {
		t.AddNote(fmt.Sprintf("equalduration check: worst FF ratio %.4f <= %.4g (Masoori et al. equal-duration reference; cf. Theorem 1's mu+4 = 5)", eqWorst, eqBound))
	}
	return []*analysis.Table{t}
}

// runE10 exercises the multi-dimensional extension the paper names as
// future work (Sec. IX): items demand CPU and memory independently and a
// server is saturated when either dimension fills. The vector OPT
// bracket (per-dimension load lower bound, vector-FFD upper bound) frames
// the measured usage of each policy.
func runE10(cfg Config) []*analysis.Table {
	dims := []int{1, 2, 4}
	n := 150
	seeds := []int64{cfg.Seed, cfg.Seed + 1}
	if cfg.Quick {
		dims = []int{2}
		seeds = seeds[:1]
		n = 60
	}
	t := analysis.NewTable("E10: multi-dimensional dispatch (independent per-dimension demands)",
		"d", "policy", "usage", "OPT(lo)", "OPT(hi)", "ratio<=")
	for _, d := range dims {
		type agg struct{ usage, lo, hi float64 }
		sums := map[string]*agg{}
		for _, seed := range seeds {
			l := fromSpec("uniform", n, 2, 4, seed, d)
			var b opt.Bounds
			if d > 1 {
				b = opt.TotalVec(l)
			} else {
				b = opt.Total(l, opt.ExactLimit)
			}
			for _, algo := range []packing.Algorithm{packing.NewFirstFit(), packing.NewBestFit(), packing.NewWorstFit()} {
				res := packing.MustRun(algo, l, nil)
				a := sums[algo.Name()]
				if a == nil {
					a = &agg{}
					sums[algo.Name()] = a
				}
				a.usage += res.TotalUsage
				a.lo += b.Lower
				a.hi += b.Upper
			}
		}
		names := make([]string, 0, len(sums))
		for name := range sums {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			a := sums[name]
			t.AddRow(d, name, a.usage, a.lo, a.hi, a.usage/a.lo)
		}
	}
	t.AddNote(fmt.Sprintf("sizes per dimension uniform in [0.05, 0.95]; %d seeds aggregated", len(seeds)))
	return []*analysis.Table{t}
}
