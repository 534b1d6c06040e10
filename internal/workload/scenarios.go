package workload

import (
	"fmt"

	"dbp/internal/item"
	"dbp/internal/trace"
)

// scenarioDef is the concrete Scenario used for every family this
// package registers: a name, description, kind, schema, a vector-support
// flag, and the generate hook.
type scenarioDef struct {
	name, desc string
	kind       ScenarioKind
	params     []Param
	vector     bool
	gen        func(req Request) (item.List, error)
}

func (s *scenarioDef) Name() string        { return s.name }
func (s *scenarioDef) Description() string { return s.desc }
func (s *scenarioDef) Kind() ScenarioKind  { return s.kind }
func (s *scenarioDef) Params() []Param     { return append([]Param(nil), s.params...) }

func (s *scenarioDef) Generate(req Request) (item.List, error) {
	if req.Dim > 1 && !s.vector {
		return nil, ErrScalarOnly
	}
	return s.gen(req)
}

// fromConfig adapts the package's Config-based generators (scalar and
// vector paths) into a scenario generate hook.
func fromConfig(build func(req Request) Config) func(req Request) (item.List, error) {
	return func(req Request) (item.List, error) {
		c := build(req)
		if req.N <= 0 || req.Rate <= 0 {
			return nil, fmt.Errorf("need n > 0 and rate > 0 (got n=%d rate=%g)", req.N, req.Rate)
		}
		if req.Dim > 1 {
			return GenerateVec(c, req.Dim), nil
		}
		return Generate(c), nil
	}
}

func init() {
	register(&scenarioDef{
		name: "uniform", kind: kindStatistical, vector: true,
		desc: "baseline: Poisson arrivals, uniform sizes [0.05,0.95], uniform durations [1,mu]",
		gen: fromConfig(func(req Request) Config {
			return UniformConfig(req.N, req.Rate, req.Mu, req.Seed)
		}),
	})
	register(&scenarioDef{
		name: "pareto", kind: kindStatistical, vector: true,
		desc: "heavy-tailed session lengths: bounded Pareto(1.2) durations on [1,mu]",
		gen: fromConfig(func(req Request) Config {
			return paretoConfig(req.N, req.Rate, req.Mu, req.Seed)
		}),
	})
	register(&scenarioDef{
		name: "bimodal", kind: kindStatistical, vector: true,
		desc: "short/long job mix: 80% duration-1 jobs, 20% duration-mu jobs",
		gen: fromConfig(func(req Request) Config {
			return BimodalConfig(req.N, req.Rate, req.Mu, req.Seed)
		}),
	})
	register(&scenarioDef{
		name: "smallitem", kind: kindStatistical, vector: true,
		desc: "all sizes <= 1/2 (the paper's small-item class, First Fit's consolidation regime)",
		gen: fromConfig(func(req Request) Config {
			return SmallItemConfig(req.N, req.Rate, req.Mu, req.Seed)
		}),
	})
	register(&scenarioDef{
		name: "equalduration", kind: kindStatistical, vector: true,
		desc: "every job runs exactly 1 time unit (mu collapses to 1; Masoori et al. bounds apply)",
		gen: fromConfig(func(req Request) Config {
			return Config{
				N: req.N, Rate: req.Rate, Seed: req.Seed,
				Size:     uniformDist{Lo: 0.05, Hi: 0.95},
				Duration: constantDist{V: 1},
			}
		}),
	})
	register(&scenarioDef{
		name: "bursty", kind: kindStatistical, vector: false,
		desc: "two-state MMPP arrivals: calm/burst flash crowds over uniform sizes and durations",
		params: []Param{
			{Name: "factor", Kind: paramFloat, Default: "10", Doc: "burst-state rate multiplier (> 1)"},
			{Name: "calm", Kind: paramFloat, Default: "30", Doc: "mean sojourn time in the calm state"},
			{Name: "burst", Kind: paramFloat, Default: "3", Doc: "mean sojourn time in the burst state"},
		},
		gen: func(req Request) (item.List, error) {
			c := BurstyConfig{
				Config:      UniformConfig(req.N, req.Rate, req.Mu, req.Seed),
				BurstFactor: req.Float("factor"),
				MeanCalm:    req.Float("calm"),
				MeanBurst:   req.Float("burst"),
			}
			if req.N <= 0 || req.Rate <= 0 || c.BurstFactor <= 1 || c.MeanCalm <= 0 || c.MeanBurst <= 0 {
				return nil, fmt.Errorf("need n, rate > 0, factor > 1, calm, burst > 0 (got %+v)", c)
			}
			return GenerateBursty(c), nil
		},
	})
	register(&scenarioDef{
		name: "diurnal", kind: kindStatistical, vector: true,
		desc: "sinusoid-modulated arrival curve (day/night cycle) over uniform sizes and durations",
		params: []Param{
			{Name: "amp", Kind: paramFloat, Default: "0.8", Doc: "modulation depth in [0, 0.95]; 0.8 = 9x peak/trough"},
			{Name: "period", Kind: paramFloat, Default: "0", Doc: "cycle length in time units (0 = auto: ~4 cycles per instance)"},
		},
		gen: func(req Request) (item.List, error) {
			c := diurnalConfig{
				Config:    UniformConfig(req.N, req.Rate, req.Mu, req.Seed),
				Amplitude: req.Float("amp"),
				Period:    req.Float("period"),
			}
			if req.N <= 0 || req.Rate <= 0 || c.Amplitude < 0 || c.Amplitude > 0.95 {
				return nil, fmt.Errorf("need n, rate > 0 and amp in [0, 0.95]")
			}
			return generateDiurnal(c, req.Dim), nil
		},
	})
	register(&scenarioDef{
		name: "zipfian", kind: kindStatistical, vector: true,
		desc: "Zipf-skewed size classes: a few small flavors dominate, large flavors are rare",
		params: []Param{
			{Name: "alpha", Kind: paramFloat, Default: "1.1", Doc: "skew exponent (> 0); frequency of rank r ~ r^-alpha"},
			{Name: "classes", Kind: paramInt, Default: "16", Doc: "number of size classes (>= 2)"},
		},
		gen: func(req Request) (item.List, error) {
			c := zipfianConfig{
				Config:  UniformConfig(req.N, req.Rate, req.Mu, req.Seed),
				Alpha:   req.Float("alpha"),
				Classes: req.Int("classes"),
				LoSize:  0.05, HiSize: 0.95,
			}
			if req.N <= 0 || req.Rate <= 0 || c.Alpha <= 0 || c.Classes < 2 {
				return nil, fmt.Errorf("need n, rate > 0, alpha > 0, classes >= 2")
			}
			return generateZipfian(c, req.Dim), nil
		},
	})
	register(&scenarioDef{
		name: "hotspot", kind: kindStatistical, vector: true,
		desc: "tenant skew: a few hot tenants carry most traffic; job IDs encode tenant affinity",
		params: []Param{
			{Name: "tenants", Kind: paramInt, Default: "50", Doc: "tenant population (>= 2)"},
			{Name: "hot", Kind: paramFloat, Default: "0.1", Doc: "fraction of tenants that are hot, in (0, 1)"},
			{Name: "share", Kind: paramFloat, Default: "0.8", Doc: "fraction of traffic routed to hot tenants, in (0, 1]"},
		},
		gen: func(req Request) (item.List, error) {
			c := hotspotConfig{
				Config:   UniformConfig(req.N, req.Rate, req.Mu, req.Seed),
				Tenants:  req.Int("tenants"),
				HotFrac:  req.Float("hot"),
				HotShare: req.Float("share"),
			}
			if req.N <= 0 || req.Rate <= 0 || c.Tenants < 2 ||
				c.HotFrac <= 0 || c.HotFrac >= 1 || c.HotShare <= 0 || c.HotShare > 1 {
				return nil, fmt.Errorf("need n, rate > 0, tenants >= 2, hot in (0,1), share in (0,1]")
			}
			return generateHotspot(c, req.Dim), nil
		},
	})
	register(&scenarioDef{
		name: "gaming", kind: kindStatistical, vector: false,
		desc: "cloud-gaming sessions from the default GPU title catalog (mu fixed at 60 by the catalog)",
		gen: func(req Request) (item.List, error) {
			if req.N <= 0 || req.Rate <= 0 {
				return nil, fmt.Errorf("need n > 0 and rate > 0")
			}
			l, _ := gamingSessions(gamingConfig{Catalog: defaultCatalog(), Rate: req.Rate, N: req.N, Seed: req.Seed})
			return l, nil
		},
	})
	register(&scenarioDef{
		name: "stress", kind: kindAdversarial, vector: false,
		desc: "First Fit small-item stress: deterministic overlapping waves that chain usage periods (E1/E7's workload)",
		params: []Param{
			{Name: "wave", Kind: paramInt, Default: "12", Doc: "small items per wave; waves repeat every mu-1 time units"},
		},
		gen: func(req Request) (item.List, error) {
			w := req.Int("wave")
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
	register(&scenarioDef{
		name: "nextfit-adv", kind: kindAdversarial, vector: false,
		desc: "Sec. VIII construction: n half/sliver pairs forcing Next Fit to ratio ~2mu (n = pair count)",
		gen: func(req Request) (item.List, error) {
			if req.N < 3 || req.Mu < 1 {
				return nil, fmt.Errorf("need n >= 3 pairs and mu >= 1")
			}
			return NextFitAdversary(req.N, req.Mu), nil
		},
	})
	register(&scenarioDef{
		name: "anyfit-trap", kind: kindAdversarial, vector: false,
		desc: "gap-seal trap pinning First/Best Fit near the universal lower bound mu (n = victim bins)",
		gen: func(req Request) (item.List, error) {
			if req.N < 2 || req.Mu < 1 {
				return nil, fmt.Errorf("need n >= 2 victims and mu >= 1")
			}
			return AnyFitTrap(req.N, req.Mu), nil
		},
	})
	register(&scenarioDef{
		name: "bestfit-relay", kind: kindAdversarial, vector: false,
		desc: "adaptive relay degrading Best Fit toward k(mu-1)/(k+mu); needs mu >= 2 (n is ignored)",
		params: []Param{
			{Name: "victims", Kind: paramInt, Default: "6", Doc: "victim bins k (>= 2)"},
			{Name: "rounds", Kind: paramInt, Default: "4", Doc: "relay rounds (>= 1)"},
		},
		gen: func(req Request) (item.List, error) {
			k, rounds := req.Int("victims"), req.Int("rounds")
			if k < 2 || rounds < 1 || req.Mu < 2 {
				return nil, fmt.Errorf("need victims >= 2, rounds >= 1, mu >= 2")
			}
			return BestFitRelay(k, rounds, req.Mu), nil
		},
	})
	// A trace ignores dim as it ignores n, rate, mu and seed: its demands,
	// scalar or vector, are in the file.
	register(&scenarioDef{
		name: "trace", kind: KindTrace, vector: true,
		desc: "replay a stored trace (CSV/JSON, .gz transparent); n, rate, mu, seed are ignored",
		params: []Param{
			{Name: "path", Kind: paramString, Default: "", Doc: "trace file path"},
		},
		gen: func(req Request) (item.List, error) {
			path := req.Str("path")
			if path == "" {
				return nil, fmt.Errorf("trace scenario needs a path (spec: trace:<path>)")
			}
			return trace.ReadFile(path)
		},
	})
}
