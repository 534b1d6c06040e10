package experiments

import (
	"sort"

	"dbp/internal/analysis"
	"dbp/internal/item"
	"dbp/internal/opt"
	"dbp/internal/packing"
	"dbp/internal/workload"
)

// runE16 contrasts the two objectives the paper distinguishes (Sec. II):
// classical Dynamic Bin Packing minimizes the *maximum number of
// concurrently open* bins, MinUsageTime minimizes *accumulated usage
// time*. The experiment measures every policy under both objectives on
// the same instances — including the Section VIII construction, where
// the two objectives diverge dramatically: Next Fit is catastrophic in
// usage time (ratio -> 2mu = 12.8 here) while its peak-bin ratio stays
// below 2 — the classical objective understates the renting-cost damage
// by an order of magnitude, which is exactly why the paper formalizes
// MinUsageTime as a separate problem.
func runE16(cfg Config) []*analysis.Table {
	n := 150
	if cfg.Quick {
		n = 60
	}
	instances := []struct {
		name string
		l    func() item.List
	}{
		{"uniform mu=8", func() item.List { return fromSpec("uniform", n, 2, 8, cfg.Seed, 1) }},
		{"nextfit-adv n=64 mu=8", func() item.List { return workload.NextFitAdversary(64, 8) }},
		{"anyfit-trap n=32 mu=8", func() item.List { return workload.AnyFitTrap(32, 8) }},
	}
	var tables []*analysis.Table
	for _, inst := range instances {
		l := inst.l()
		usageBr := opt.Total(l, opt.ExactLimit)
		peakOpt := opt.MaxConcurrentOpt(l)
		t := analysis.NewTable("E16: objective contrast — "+inst.name,
			"policy", "usage", "usage ratio<=", "peak open", "peak ratio", "rank(usage)", "rank(peak)")
		type row struct {
			name  string
			usage float64
			peak  int
		}
		var rows []row
		for name, algo := range packing.Standard() {
			res := packing.MustRun(algo, l, nil)
			rows = append(rows, row{name, res.TotalUsage, res.MaxConcurrentOpen})
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
		usageRank := rankBy(rows, func(r row) float64 { return r.usage })
		peakRank := rankBy(rows, func(r row) float64 { return float64(r.peak) })
		for i, r := range rows {
			t.AddRow(r.name, r.usage, r.usage/usageBr.Lower,
				r.peak, float64(r.peak)/float64(peakOpt),
				usageRank[i], peakRank[i])
		}
		t.AddNote("peak ratio is vs the classical DBP optimum max_t OPT(R,t); rank 1 = best under that objective")
		tables = append(tables, t)
	}
	return tables
}

// rankBy returns each row's 1-based rank under the key (ties share the
// better rank).
func rankBy[T any](rows []T, key func(T) float64) []int {
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return key(rows[idx[a]]) < key(rows[idx[b]]) })
	ranks := make([]int, len(rows))
	for pos, i := range idx {
		ranks[i] = pos + 1
		if pos > 0 && key(rows[i]) == key(rows[idx[pos-1]]) {
			ranks[i] = ranks[idx[pos-1]]
		}
	}
	return ranks
}
