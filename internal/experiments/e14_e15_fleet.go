package experiments

import (
	"fmt"

	"dbp/internal/analysis"
	"dbp/internal/cloud"
	"dbp/internal/item"
	"dbp/internal/opt"
	"dbp/internal/packing"
)

// optBracket computes the OPT bracket used by comparison experiments.
func optBracket(l item.List) opt.Bounds {
	return opt.Total(l, opt.ExactLimit)
}

// e14Fleet is the three-tier catalog used by E14, with sub-linear
// pricing (doubling capacity costs less than double) — the shape of real
// cloud price lists, and the reason "right-size everything" is not
// automatically cheapest.
func e14Fleet() ([]packing.ServerType, cloud.RatePlan) {
	fleet := []packing.ServerType{
		{Name: "small", Capacity: 0.25},
		{Name: "medium", Capacity: 0.5},
		{Name: "large", Capacity: 1.0},
	}
	plan := cloud.RatePlan{
		Granularity: 60, // hourly, minutes as time unit
		Tiers: []cloud.TierRate{
			{Capacity: 0.25, Rate: 0.35 / 60},
			{Capacity: 0.5, Rate: 0.60 / 60},
			{Capacity: 1.0, Rate: 1.00 / 60},
		},
	}
	return fleet, plan
}

// runE14 evaluates heterogeneous fleets: the same gaming workload
// dispatched onto a three-tier catalog under two opening strategies
// (right-size vs always-large) and two packing policies, priced with the
// sub-linear tier plan. The paper's unit-capacity model is the
// always-large column; the experiment quantifies what tier choice adds.
func runE14(cfg Config) []*analysis.Table {
	n := 600
	if cfg.Quick {
		n = 150
	}
	l := fromSpec("gaming", n, 0.5, 0, cfg.Seed, 1)
	fleet, plan := e14Fleet()

	t := analysis.NewTable("E14: heterogeneous fleet (3 tiers, sub-linear pricing, hourly billing)",
		"policy", "tier strategy", "servers", "usage (min)", "bill $")
	for _, algo := range []func() packing.Algorithm{
		func() packing.Algorithm { return packing.NewFirstFit() },
		func() packing.Algorithm { return packing.NewBestFit() },
	} {
		for _, ch := range []struct {
			name    string
			chooser packing.TypeChooser
		}{
			{"right-size", packing.RightSize()},
			{"always-large", packing.LargestType()},
		} {
			a := algo()
			res, err := packing.RunFleet(a, l, fleet, ch.chooser, nil)
			if err != nil {
				panic(fmt.Sprintf("E14: %v", err))
			}
			iv := cloud.CostFleet(res, plan)
			t.AddRow(a.Name(), ch.name, res.NumBins(), res.TotalUsage, iv.Total)
		}
	}
	t.AddNote("always-large reproduces the paper's unit-capacity model; right-size pays less per server but opens more of them")
	return []*analysis.Table{t}
}

// runE15 stresses the policies with non-smooth arrival curves: bursty
// (Markov-modulated Poisson) flash crowds open many servers at once,
// whose stragglers then keep them alive, and diurnal sinusoid modulation
// alternates packed days with idle nights — the regimes where the spread
// between policies widens compared with smooth Poisson arrivals of the
// same average rate. The arrival shapes are registry scenarios, selected
// by spec.
func runE15(cfg Config) []*analysis.Table {
	n := 400
	if cfg.Quick {
		n = 120
	}
	mu := 8.0
	t := analysis.NewTable("E15: arrival shape (smooth vs bursty vs diurnal) — conservative ratio",
		"arrivals", "FF", "BF", "NF", "HFF", "peak open (FF)")
	for _, mode := range []struct{ label, spec string }{
		{"smooth", "uniform"},
		{"bursty x10", "bursty:factor=10,calm=30,burst=3"},
		{"diurnal", "diurnal:amp=0.8"},
	} {
		l := fromSpec(mode.spec, n, 1, mu, cfg.Seed, 1)
		b := optBracket(l)
		row := []any{mode.label}
		var peak int
		for _, mk := range []func() packing.Algorithm{
			func() packing.Algorithm { return packing.NewFirstFit() },
			func() packing.Algorithm { return packing.NewBestFit() },
			func() packing.Algorithm { return packing.NewNextFit() },
			func() packing.Algorithm { return packing.NewHybridFirstFit(2) },
		} {
			a := mk()
			res := packing.MustRun(a, l, nil)
			row = append(row, res.TotalUsage/b.Lower)
			if a.Name() == "FirstFit" {
				peak = res.MaxConcurrentOpen
			}
		}
		row = append(row, peak)
		t.AddRow(row...)
	}
	t.AddNote("same n, duration and size distributions; bursts concentrate arrivals 10x for short spells, diurnal modulates the rate 9x peak/trough")
	return []*analysis.Table{t}
}
