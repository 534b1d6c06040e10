package workload

import (
	"fmt"

	"dbp/internal/item"
	"dbp/internal/trace"
)

// fromConfig is the generate hook of the Poisson families: it checks
// the request and runs the one generator loop on build's configuration
// at the request's dimension.
func fromConfig(build func(req request) config) func(req request) (item.List, error) {
	return func(req request) (item.List, error) {
		if req.N <= 0 || req.Rate <= 0 {
			return nil, fmt.Errorf("need n > 0 and rate > 0 (got n=%d rate=%g)", req.N, req.Rate)
		}
		return generate(build(req), req.Dim), nil
	}
}

func init() {
	register(&Scenario{
		name: "uniform", kind: KindStatistical, vector: true,
		desc: "baseline: Poisson arrivals, uniform sizes [0.05,0.95], uniform durations [1,mu]",
		gen:  fromConfig(uniformConfig),
	})
	register(&Scenario{
		name: "pareto", kind: KindStatistical, vector: true,
		desc: "heavy-tailed session lengths: bounded Pareto(1.2) durations on [1,mu]",
		gen: fromConfig(func(req request) config {
			c := uniformConfig(req)
			c.Duration = paretoDist{Alpha: 1.2, Lo: 1, Hi: req.Mu}
			return c
		}),
	})
	register(&Scenario{
		name: "bimodal", kind: KindStatistical, vector: true,
		desc: "short/long job mix: 80% duration-1 jobs, 20% duration-mu jobs",
		gen: fromConfig(func(req request) config {
			c := uniformConfig(req)
			c.Duration = bimodalDist{A: constantDist{V: 1}, B: constantDist{V: req.Mu}, PA: 0.8}
			return c
		}),
	})
	register(&Scenario{
		name: "smallitem", kind: KindStatistical, vector: true,
		desc: "all sizes <= 1/2 (the paper's small-item class, First Fit's consolidation regime)",
		gen: fromConfig(func(req request) config {
			c := uniformConfig(req)
			c.Size = uniformDist{Lo: 0.05, Hi: 0.5}
			return c
		}),
	})
	register(&Scenario{
		name: "equalduration", kind: KindStatistical, vector: true,
		desc: "every job runs exactly 1 time unit (mu collapses to 1; Masoori et al. bounds apply)",
		gen: fromConfig(func(req request) config {
			c := uniformConfig(req)
			c.Duration = constantDist{V: 1}
			return c
		}),
	})
	register(&Scenario{
		name: "bursty", kind: KindStatistical, vector: false,
		desc: "two-state MMPP arrivals: calm/burst flash crowds over uniform sizes and durations",
		params: []param{
			{Name: "factor", Kind: paramFloat, Default: "10", Doc: "burst-state rate multiplier (> 1)"},
			{Name: "calm", Kind: paramFloat, Default: "30", Doc: "mean sojourn time in the calm state"},
			{Name: "burst", Kind: paramFloat, Default: "3", Doc: "mean sojourn time in the burst state"},
		},
		gen: func(req request) (item.List, error) {
			c := burstyConfig{
				config:      uniformConfig(req),
				BurstFactor: req.floatParam("factor"),
				MeanCalm:    req.floatParam("calm"),
				MeanBurst:   req.floatParam("burst"),
			}
			if req.N <= 0 || req.Rate <= 0 || c.BurstFactor <= 1 || c.MeanCalm <= 0 || c.MeanBurst <= 0 {
				return nil, fmt.Errorf("need n, rate > 0, factor > 1, calm, burst > 0 (got n=%d rate=%g factor=%g calm=%g burst=%g)",
					req.N, req.Rate, c.BurstFactor, c.MeanCalm, c.MeanBurst)
			}
			return generateBursty(c), nil
		},
	})
	register(&Scenario{
		name: "diurnal", kind: KindStatistical, vector: true,
		desc: "sinusoid-modulated arrival curve (day/night cycle) over uniform sizes and durations",
		params: []param{
			{Name: "amp", Kind: paramFloat, Default: "0.8", Doc: "modulation depth in [0, 0.95]; 0.8 = 9x peak/trough"},
			{Name: "period", Kind: paramFloat, Default: "0", Doc: "cycle length in time units (0 = auto: ~4 cycles per instance)"},
		},
		gen: func(req request) (item.List, error) {
			c := diurnalConfig{
				config:    uniformConfig(req),
				Amplitude: req.floatParam("amp"),
				Period:    req.floatParam("period"),
			}
			if req.N <= 0 || req.Rate <= 0 || c.Amplitude < 0 || c.Amplitude > 0.95 {
				return nil, fmt.Errorf("need n, rate > 0 and amp in [0, 0.95]")
			}
			return generateDiurnal(c, req.Dim), nil
		},
	})
	register(&Scenario{
		name: "zipfian", kind: KindStatistical, vector: true,
		desc: "Zipf-skewed size classes: a few small flavors dominate, large flavors are rare",
		params: []param{
			{Name: "alpha", Kind: paramFloat, Default: "1.1", Doc: "skew exponent (> 0); frequency of rank r ~ r^-alpha"},
			{Name: "classes", Kind: paramInt, Default: "16", Doc: "number of size classes (>= 2)"},
		},
		gen: func(req request) (item.List, error) {
			alpha, classes := req.floatParam("alpha"), req.intParam("classes")
			if req.N <= 0 || req.Rate <= 0 || alpha <= 0 || classes < 2 {
				return nil, fmt.Errorf("need n, rate > 0, alpha > 0, classes >= 2")
			}
			c := uniformConfig(req)
			c.Size = newZipfSizes(alpha, classes, 0.05, 0.95)
			return generate(c, req.Dim), nil
		},
	})
	register(&Scenario{
		name: "hotspot", kind: KindStatistical, vector: true,
		desc: "tenant skew: a few hot tenants carry most traffic; job IDs encode tenant affinity",
		params: []param{
			{Name: "tenants", Kind: paramInt, Default: "50", Doc: "tenant population (>= 2)"},
			{Name: "hot", Kind: paramFloat, Default: "0.1", Doc: "fraction of tenants that are hot, in (0, 1)"},
			{Name: "share", Kind: paramFloat, Default: "0.8", Doc: "fraction of traffic routed to hot tenants, in (0, 1]"},
		},
		gen: func(req request) (item.List, error) {
			c := hotspotConfig{
				config:   uniformConfig(req),
				Tenants:  req.intParam("tenants"),
				HotFrac:  req.floatParam("hot"),
				HotShare: req.floatParam("share"),
			}
			if req.N <= 0 || req.Rate <= 0 || c.Tenants < 2 ||
				c.HotFrac <= 0 || c.HotFrac >= 1 || c.HotShare <= 0 || c.HotShare > 1 {
				return nil, fmt.Errorf("need n, rate > 0, tenants >= 2, hot in (0,1), share in (0,1]")
			}
			return generateHotspot(c, req.Dim), nil
		},
	})
	register(&Scenario{
		name: "gaming", kind: KindStatistical, vector: false,
		desc: "cloud-gaming sessions from the default GPU title catalog (mu fixed at 60 by the catalog)",
		gen: func(req request) (item.List, error) {
			if req.N <= 0 || req.Rate <= 0 {
				return nil, fmt.Errorf("need n > 0 and rate > 0")
			}
			l, _ := gamingSessions(gamingConfig{Catalog: defaultCatalog(), Rate: req.Rate, N: req.N, Seed: req.Seed})
			return l, nil
		},
	})
	register(&Scenario{
		name: "stress", kind: kindAdversarial, vector: false,
		desc: "First Fit small-item stress: deterministic overlapping waves that chain usage periods (E1/E7's workload)",
		params: []param{
			{Name: "wave", Kind: paramInt, Default: "12", Doc: "small items per wave; waves repeat every mu-1 time units"},
		},
		gen: func(req request) (item.List, error) {
			w := req.intParam("wave")
			if w < 1 || req.N < 1 || req.Mu <= 1 {
				return nil, fmt.Errorf("need wave >= 1, n >= 1, mu > 1")
			}
			rounds := req.N / w
			if rounds < 1 {
				rounds = 1
			}
			return FirstFitSmallItemStress(w, rounds, req.Mu), nil
		},
	})
	register(&Scenario{
		name: "nextfit-adv", kind: kindAdversarial, vector: false,
		desc: "Sec. VIII construction: n half/sliver pairs forcing Next Fit to ratio ~2mu (n = pair count)",
		gen: func(req request) (item.List, error) {
			if req.N < 3 || req.Mu < 1 {
				return nil, fmt.Errorf("need n >= 3 pairs and mu >= 1")
			}
			return NextFitAdversary(req.N, req.Mu), nil
		},
	})
	register(&Scenario{
		name: "anyfit-trap", kind: kindAdversarial, vector: false,
		desc: "gap-seal trap pinning First/Best Fit near the universal lower bound mu (n = victim bins)",
		gen: func(req request) (item.List, error) {
			if req.N < 2 || req.Mu < 1 {
				return nil, fmt.Errorf("need n >= 2 victims and mu >= 1")
			}
			return AnyFitTrap(req.N, req.Mu), nil
		},
	})
	register(&Scenario{
		name: "bestfit-relay", kind: kindAdversarial, vector: false,
		desc: "adaptive relay degrading Best Fit toward k(mu-1)/(k+mu); needs mu >= 2 (n is ignored)",
		params: []param{
			{Name: "victims", Kind: paramInt, Default: "6", Doc: "victim bins k (>= 2)"},
			{Name: "rounds", Kind: paramInt, Default: "4", Doc: "relay rounds (>= 1)"},
		},
		gen: func(req request) (item.List, error) {
			k, rounds := req.intParam("victims"), req.intParam("rounds")
			if k < 2 || rounds < 1 || req.Mu < 2 {
				return nil, fmt.Errorf("need victims >= 2, rounds >= 1, mu >= 2")
			}
			return BestFitRelay(k, rounds, req.Mu), nil
		},
	})
	// A trace ignores dim as it ignores n, rate, mu and seed: its demands,
	// scalar or vector, are in the file.
	register(&Scenario{
		name: "trace", kind: kindTrace, vector: true,
		desc: "replay a stored trace (CSV/JSON, .gz transparent); n, rate, mu, seed are ignored",
		params: []param{
			{Name: "path", Kind: paramString, Default: "", Doc: "trace file path"},
		},
		gen: func(req request) (item.List, error) {
			path := req.param("path")
			if path == "" {
				return nil, fmt.Errorf("trace scenario needs a path (spec: trace:<path>)")
			}
			return trace.ReadFile(path)
		},
	})
}
