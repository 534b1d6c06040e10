package experiments

import (
	"fmt"
	"math/rand"
	"sort"

	"dbp/internal/analysis"
	"dbp/internal/cloud"
	"dbp/internal/item"
	"dbp/internal/packing"
	"dbp/internal/workload"
)

// runE11 sweeps the reconstructed Sections VI-VII supplier-period
// parameterization (see analysis.SupplierParams): for each candidate, it
// reports how often supplier periods of distinct l-groups intersect (the
// quantity Lemma 2 proves to be zero under the paper's exact constants)
// and the measured amortized utilization over l-subperiods plus supplier
// periods (the quantity Sec. VII lower-bounds on the way to Theorem 1).
func runE11(cfg Config) []*analysis.Table {
	trials := 25
	if cfg.Quick {
		trials = 5
	}
	params := []struct {
		name string
		p    analysis.SupplierParams
	}{
		{"L=R=1/2, slack=1 (default)", analysis.DefaultSupplierParams()},
		{"L=R=1/2, slack=1/2", analysis.SupplierParams{LeftFrac: 0.5, RightFrac: 0.5, PairSlack: 0.5}},
		{"L=R=1, slack=1", analysis.SupplierParams{LeftFrac: 1, RightFrac: 1, PairSlack: 1}},
		{"L=1/4, R=1/4, slack=1", analysis.SupplierParams{LeftFrac: 0.25, RightFrac: 0.25, PairSlack: 1}},
	}
	t := analysis.NewTable("E11: supplier-period reconstruction sweep (Secs. VI-VII)",
		"parameterization", "groups", "pairs", "intersections", "overlap", "amortized level", "paper-shaped bound")
	rng := rand.New(rand.NewSource(cfg.Seed))
	corpus := make([]*packing.Result, 0, trials+1)
	for i := 0; i < trials; i++ {
		mu := 1.5 + rng.Float64()*6
		corpus = append(corpus, packing.MustRun(packing.NewFirstFit(), randomSmallMix(rng, 100, 12, mu), nil))
	}
	corpus = append(corpus, packing.MustRun(packing.NewFirstFit(), workload.FirstFitSmallItemStress(8, 6, 3), nil))
	for _, pc := range params {
		var census analysis.IntersectionReport
		var amort analysis.AmortizedReport
		for _, res := range corpus {
			sps := analysis.SubperiodsOf(res)
			groups := analysis.BuildLGroups(sps, pc.p)
			r := analysis.CheckSupplierDisjointness(groups)
			census.Groups += r.Groups
			census.Pairs += r.Pairs
			census.Intersections += r.Intersections
			census.OverlapTime += r.OverlapTime
			a := analysis.MeasureAmortizedLevel(res, sps, groups)
			amort.Length += a.Length
			amort.Demand += a.Demand
			if a.Window > amort.Window {
				amort.Window = a.Window
			}
		}
		t.AddRow(pc.name, census.Groups, census.Pairs, census.Intersections,
			census.OverlapTime, amort.Level(), amort.PaperBound())
	}
	t.AddNote("Lemma 2 claims zero intersections under the paper's exact constants; the sweep shows which reconstruction approaches that")
	t.AddNote("the measured amortized level sits far above the 1/(2(mu+3)) bound shape: the proof's slack is what the +4 constant absorbs")
	return []*analysis.Table{t}
}

// runE12 evaluates server keep-alive: emptied servers linger (reusable)
// for a while before shutting down. Under per-hour billing a server's
// started hour is already paid, so lingering up to the billing quantum is
// often free — the measured bill dips at moderate keep-alive values even
// though raw usage time grows monotonically.
func runE12(cfg Config) []*analysis.Table {
	n := 600
	if cfg.Quick {
		n = 150
	}
	l, err := workload.FromSpec("gaming", n, 0.5, 0, cfg.Seed, 1)
	if err != nil {
		panic(fmt.Sprintf("E12: %v", err))
	}
	plan := cloud.Hourly(0.90, 60) // $0.90/hour, minutes as time unit
	t := analysis.NewTable("E12: keep-alive vs hourly bill (First Fit, gaming workload)",
		"keep-alive (min)", "servers", "usage (min)", "billed (min)", "bill $", "vs no keep-alive")
	var base float64
	for _, ka := range []float64{0, 5, 15, 30, 60, 120} {
		res, err := packing.Run(packing.NewFirstFit(), l, &packing.Options{KeepAlive: ka})
		if err != nil {
			panic(fmt.Sprintf("E12: %v", err))
		}
		iv := cloud.Cost(res, plan)
		if ka == 0 {
			base = iv.Total
		}
		t.AddRow(ka, res.NumBins(), res.TotalUsage, iv.BilledTime, iv.Total,
			fmt.Sprintf("%+.1f%%", 100*(iv.Total-base)/base))
	}
	t.AddNote("usage time grows with keep-alive, but reuse collapses servers: the hourly bill can drop below the no-keep-alive baseline")
	return []*analysis.Table{t}
}

// runE13 runs the ablations DESIGN.md §6 calls out, plus the bounded-
// space interpolation between Next Fit and First Fit:
//
//	(a) same-instant event order (departures-first, the model's default,
//	    vs arrivals-first) on the Sec. VIII construction and random load;
//	(b) Next-k Fit on the Sec. VIII adversary: how many available bins
//	    does Next Fit need before the 2*mu penalty dissolves;
//	(c) the clairvoyant baselines: how much knowing departures helps.
func runE13(cfg Config) []*analysis.Table {
	var tables []*analysis.Table

	// (a) tie-order ablation.
	ta := analysis.NewTable("E13a: same-instant event order ablation (First Fit)",
		"workload", "usage (def)", "usage (abl)", "delta%", "bins (def)", "bins (abl)")
	for _, w := range []struct {
		name string
		l    item.List
	}{
		{"nextfit-adv n=64", workload.NextFitAdversary(64, 8)},
		{"uniform n=200", workload.Generate(workload.UniformConfig(200, 4, 8, cfg.Seed))},
		{"back-to-back chain", chainInstance(40)},
	} {
		d := packing.MustRun(packing.NewFirstFit(), w.l, nil)
		a := packing.MustRun(packing.NewFirstFit(), w.l, &packing.Options{ArrivalsFirst: true})
		ta.AddRow(w.name, d.TotalUsage, a.TotalUsage,
			fmt.Sprintf("%+.2f%%", 100*(a.TotalUsage-d.TotalUsage)/d.TotalUsage),
			d.NumBins(), a.NumBins())
	}
	ta.AddNote("the back-to-back chain collapses to one bin under arrivals-first: the new job overlaps the departing one for an instant")
	ta.AddNote("arrivals-first forbids reusing capacity freed at the same instant (half-open intervals reversed)")
	tables = append(tables, ta)

	// (b) Next-k Fit sweep on the Sec. VIII adversary.
	tb := analysis.NewTable("E13b: bounded-space Next-k Fit on the Sec. VIII adversary (n=64, mu=8)",
		"k", "usage", "ratio", "reference")
	l := workload.NextFitAdversary(64, 8)
	optTotal := 64.0/2 + 8
	for _, k := range []int{1, 2, 4, 8, 16} {
		res := packing.MustRun(packing.NewNextKFit(k), l, nil)
		ref := ""
		if k == 1 {
			ref = "== Next Fit (2mu limit)"
		}
		tb.AddRow(k, res.TotalUsage, res.TotalUsage/optTotal, ref)
	}
	ff := packing.MustRun(packing.NewFirstFit(), l, nil)
	tb.AddRow("FF", ff.TotalUsage, ff.TotalUsage/optTotal, "unbounded space")
	tables = append(tables, tb)

	// (c) clairvoyant baselines on a small-item bimodal mix — the regime
	// where placement choice matters (several jobs per server, a mix of
	// short jobs and 10x stragglers that keep wrong servers alive).
	tc := analysis.NewTable("E13c: value of knowing departures (small-item bimodal workload)",
		"policy", "usage", "vs FirstFit")
	lb := smallBimodal(300, cfg.Seed)
	ffRes := packing.MustRun(packing.NewFirstFit(), lb, nil)
	tc.AddRow("FirstFit (online)", ffRes.TotalUsage, "1.000")
	clair := packing.Clairvoyant()
	names := make([]string, 0, len(clair))
	for name := range clair {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		res, err := packing.Run(clair[name], lb, &packing.Options{Clairvoyant: true})
		if err != nil {
			panic(fmt.Sprintf("E13c %s: %v", name, err))
		}
		tc.AddRow(res.Algorithm, res.TotalUsage, fmt.Sprintf("%.3f", res.TotalUsage/ffRes.TotalUsage))
	}
	tc.AddNote("clairvoyant policies see departures at placement: the paper's online model forbids this (cf. interval scheduling, Sec. II)")
	tables = append(tables, tc)

	// (d) prediction-noise sweep: how accurate must a duration predictor
	// be before a departure-aware rule beats plain (online) First Fit?
	td := analysis.NewTable("E13d: learning-augmented dispatch — prediction noise sweep",
		"sigma (lognormal)", "usage", "vs FirstFit")
	td.AddRow("online FF (no predictions)", ffRes.TotalUsage, "1.000")
	for _, sigma := range []float64{0, 0.25, 0.5, 1, 2, 4} {
		res, err := packing.Run(packing.NewPredictiveFit(sigma, cfg.Seed), lb, &packing.Options{Clairvoyant: true})
		if err != nil {
			panic(fmt.Sprintf("E13d: %v", err))
		}
		td.AddRow(sigma, res.TotalUsage, fmt.Sprintf("%.3f", res.TotalUsage/ffRes.TotalUsage))
	}
	td.AddNote("sigma = 0 is perfect clairvoyance; predictions degrade lognormally with sigma")
	tables = append(tables, td)
	return tables
}

// smallBimodal builds the clairvoyance-sensitive workload: small items
// (several share a server) with bimodal durations (short 1 vs straggler
// 10), moderate load.
func smallBimodal(n int, seed int64) item.List {
	rng := rand.New(rand.NewSource(seed))
	l := make(item.List, n)
	for i := range l {
		a := rng.Float64() * 40
		dur := 1.0
		if rng.Float64() < 0.3 {
			dur = 10
		}
		l[i] = item.Item{ID: item.ID(i + 1), Size: 0.05 + rng.Float64()*0.45, Arrival: a, Departure: a + dur}
	}
	return l
}

// chainInstance builds back-to-back items: each departs exactly when the
// next arrives, maximizing sensitivity to the same-instant tie rule.
func chainInstance(n int) item.List {
	l := make(item.List, n)
	for i := range l {
		t := float64(i)
		l[i] = item.Item{ID: item.ID(i + 1), Size: 0.45, Arrival: t, Departure: t + 1}
	}
	return l
}
