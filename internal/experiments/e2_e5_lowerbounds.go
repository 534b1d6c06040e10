package experiments

import (
	"fmt"
	"sort"

	"dbp/internal/analysis"
	"dbp/internal/item"
	"dbp/internal/opt"
	"dbp/internal/packing"
	"dbp/internal/workload"
)

// runE2 reproduces the Section VIII construction: Next Fit pays n*mu
// while the optimum pays n/2 + mu, so the ratio climbs to 2*mu with n.
// First Fit on the same instances stays near 1, showing the separation.
func runE2(cfg Config) []*analysis.Table {
	ns := []int{4, 16, 64, 256, 1024}
	mus := []float64{2, 8, 32}
	if cfg.Quick {
		ns = []int{4, 64}
		mus = []float64{8}
	}
	t := analysis.NewTable("E2: Next Fit on the Section VIII adversary",
		"n", "mu", "NF usage", "OPT", "NF ratio", "analytic", "2*mu", "FF ratio")
	for _, mu := range mus {
		for _, n := range ns {
			l := workload.NextFitAdversary(n, mu)
			nf := packing.MustRun(packing.NewNextFit(), l, nil)
			ff := packing.MustRun(packing.NewFirstFit(), l, nil)
			optTotal := float64(n)/2 + mu // exact (verified in tests)
			t.AddRow(n, mu, nf.TotalUsage, optTotal,
				nf.TotalUsage/optTotal,
				workload.NextFitAdversaryRatioLimit(n, mu),
				2*mu,
				ff.TotalUsage/optTotal)
		}
	}
	t.AddNote("NF usage = n*mu exactly; OPT = n/2 + mu (paper Sec. VIII); the ratio approaches 2*mu as n grows")
	return []*analysis.Table{t}
}

// runE3 runs the gap-seal trap, which pins First Fit and Best Fit to n
// bins for the long tinies' entire lifetime: measured ratios approach mu,
// the universal lower bound, and sit below the Any Fit lower bound mu+1.
func runE3(cfg Config) []*analysis.Table {
	ns := []int{8, 32, 128, 512}
	mus := []float64{2, 8, 32}
	if cfg.Quick {
		ns = []int{8, 64}
		mus = []float64{8}
	}
	t := analysis.NewTable("E3: gap-seal trap — conservative algorithms pinned near mu",
		"n", "mu", "FF ratio", "BF ratio", "analytic n*mu/(n+mu-1)", "mu", "AnyFit LB mu+1")
	for _, mu := range mus {
		for _, n := range ns {
			l := workload.AnyFitTrap(n, mu)
			optTotal := float64(n) + mu - 1 // exact (verified in tests)
			ff := packing.MustRun(packing.NewFirstFit(), l, nil)
			bf := packing.MustRun(packing.NewBestFit(), l, nil)
			t.AddRow(n, mu, ff.TotalUsage/optTotal, bf.TotalUsage/optTotal,
				workload.AnyFitTrapRatioLimit(n, mu),
				analysis.AnyOnlineLowerBound(mu),
				analysis.AnyFitLowerBound(mu))
		}
	}
	t.AddNote("the formal Any Fit bound mu+1 uses an adaptive adversary; this fixed family realizes mu in the limit")
	return []*analysis.Table{t}
}

// runE4 runs the adaptive Best Fit relay: Best Fit's measured ratio grows
// with the number of victim bins k at fixed mu, while First Fit on the
// identical instance stays low — the qualitative content of "Best Fit is
// not bounded for any given mu" (Sec. I).
func runE4(cfg Config) []*analysis.Table {
	ks := []int{4, 8, 16, 32}
	rounds := 8
	mu := 4.0
	if cfg.Quick {
		ks = []int{4, 16}
		rounds = 4
	}
	t := analysis.NewTable(fmt.Sprintf("E4: adaptive relay vs Best Fit (mu=%g, rounds=%d)", mu, rounds),
		"k", "BF usage", "FF usage", "OPT(hi)", "BF ratio>=", "FF ratio<=", "analytic k(mu-1)/(k+mu-1)")
	for _, k := range ks {
		l := workload.BestFitRelay(k, rounds, mu)
		bf := packing.MustRun(packing.NewBestFit(), l, nil)
		ff := packing.MustRun(packing.NewFirstFit(), l, nil)
		// Heuristic bracket. At opt.ExactLimit the table prints the same,
		// but 77 of the k = 16 relay's segments spend the whole node
		// budget, and E4 takes about 15 s instead of 30 ms (2 vCPUs).
		b := opt.Total(l, 1)
		t.AddRow(k, bf.TotalUsage, ff.TotalUsage, b.Upper,
			bf.TotalUsage/b.Upper, ff.TotalUsage/b.Lower,
			workload.BestFitRelayRatioLimit(k, mu))
	}
	t.AddNote("BF ratio>= uses OPT's upper bracket (certified underestimate of the true ratio)")
	return []*analysis.Table{t}
}

// runE5 measures every standard policy against both adversary families
// and reports the worst ratio each policy suffered — an empirical view of
// the universal lower bound mu (every policy loses at least mu somewhere;
// escaping one trap does not beat the adaptive bound).
func runE5(cfg Config) []*analysis.Table {
	mu := 8.0
	n := 200
	if cfg.Quick {
		n = 50
	}
	families := map[string]item.List{
		"anyfit-trap": workload.AnyFitTrap(n, mu),
		"nextfit-adv": workload.NextFitAdversary(n, mu),
	}
	if !cfg.Quick {
		families["bestfit-relay"] = workload.BestFitRelay(16, 8, mu)
	}
	t := analysis.NewTable(fmt.Sprintf("E5: worst measured ratio per policy (mu=%g)", mu),
		"policy", "worst ratio>=", "on family", "universal LB mu")
	type worst struct {
		ratio  float64
		family string
	}
	results := map[string]worst{}
	for fam, l := range families {
		b := opt.Total(l, 1)
		for name, algo := range packing.Standard() {
			res, err := packing.Run(algo, l, nil)
			if err != nil {
				panic(fmt.Sprintf("E5 %s/%s: %v", fam, name, err))
			}
			r := res.TotalUsage / b.Upper
			if r > results[name].ratio {
				results[name] = worst{ratio: r, family: fam}
			}
		}
	}
	names := make([]string, 0, len(results))
	for name := range results {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.AddRow(name, results[name].ratio, results[name].family, mu)
	}
	t.AddNote("ratios are certified underestimates (vs OPT upper bracket); the adaptive adversary of [12] forces >= mu for every policy")
	return []*analysis.Table{t}
}
