package dbp

import (
	"fmt"
	"testing"

	"dbp/internal/experiments"
	"dbp/internal/item"
	"dbp/internal/opt"
	"dbp/internal/packing"
	"dbp/internal/workload"
)

// One benchmark per experiment (E1–E10): each runs the harness that
// regenerates the corresponding table/series from the paper's claims (see
// DESIGN.md for the experiment index). Quick mode keeps iterations
// bounded; run cmd/dbpexp for the full sweeps and rendered tables.

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := experiments.Config{Quick: true, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables := e.Run(cfg)
		if len(tables) == 0 {
			b.Fatal("no tables")
		}
	}
}

func BenchmarkE1FirstFitBound(b *testing.B)       { benchExperiment(b, "E1") }
func BenchmarkE2NextFitLowerBound(b *testing.B)   { benchExperiment(b, "E2") }
func BenchmarkE3AnyFitLowerBound(b *testing.B)    { benchExperiment(b, "E3") }
func BenchmarkE4BestFitUnbounded(b *testing.B)    { benchExperiment(b, "E4") }
func BenchmarkE5UniversalLowerBound(b *testing.B) { benchExperiment(b, "E5") }
func BenchmarkE6BoundsTable(b *testing.B)         { benchExperiment(b, "E6") }
func BenchmarkE7Decomposition(b *testing.B)       { benchExperiment(b, "E7") }
func BenchmarkE8GamingCost(b *testing.B)          { benchExperiment(b, "E8") }
func BenchmarkE9AlgorithmComparison(b *testing.B) { benchExperiment(b, "E9") }
func BenchmarkE10MultiDim(b *testing.B)           { benchExperiment(b, "E10") }

// Micro-benchmarks: the per-event cost of the simulator under each
// policy, the exact OPT solver, and the adversary generators.

func benchPolicy(b *testing.B, algo Algorithm, n int) {
	b.Helper()
	jobs := GenerateUniform(n, 4, 8, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(algo, jobs); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(0)
	b.ReportMetric(float64(2*n), "events/op")
}

func BenchmarkSimulateFirstFit1k(b *testing.B) { benchPolicy(b, FirstFit(), 1000) }
func BenchmarkSimulateBestFit1k(b *testing.B)  { benchPolicy(b, BestFit(), 1000) }
func BenchmarkSimulateNextFit1k(b *testing.B)  { benchPolicy(b, NextFit(), 1000) }
func BenchmarkSimulateHybridFF1k(b *testing.B) { benchPolicy(b, HybridFirstFit(2), 1000) }

func BenchmarkSimulateFirstFitBySize(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchPolicy(b, FirstFit(), n)
		})
	}
}

func BenchmarkOptExactSegment(b *testing.B) {
	jobs := GenerateUniform(60, 2, 4, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := opt.TotalExact(jobs); !ok {
			b.Fatal("exact solve cut off")
		}
	}
}

func BenchmarkAdversaryGeneration(b *testing.B) {
	b.Run("NextFitAdversary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			workload.NextFitAdversary(256, 8)
		}
	})
	b.Run("AnyFitTrap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			workload.AnyFitTrap(256, 8)
		}
	})
	b.Run("BestFitRelay", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			workload.BestFitRelay(8, 4, 4)
		}
	})
}

func BenchmarkDispatcherArriveDepart(b *testing.B) {
	b.ReportAllocs()
	d := NewDispatcher(FirstFit(), 0, 1)
	t := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := ID(i + 1)
		t += 0.001
		if _, _, err := d.Arrive(id, 0.3, nil, t); err != nil {
			b.Fatal(err)
		}
		if i >= 100 {
			t += 0.001
			if _, _, err := d.Depart(ID(i-99), t); err != nil {
				b.Fatal(err)
			}
		}
	}
	_ = packing.Algorithm(nil)
}

func BenchmarkE11SupplierSweep(b *testing.B) { benchExperiment(b, "E11") }
func BenchmarkE12KeepAlive(b *testing.B)     { benchExperiment(b, "E12") }
func BenchmarkE13Ablations(b *testing.B)     { benchExperiment(b, "E13") }

func BenchmarkSimulateKeepAlive1k(b *testing.B) {
	jobs := GenerateUniform(1000, 4, 8, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunKeepAlive(FirstFit(), jobs, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFirstFitEngines compares the linear O(B)-scan reference
// engine with the indexed (BinIndex) engine on a large instance
// (identical packings, asserted by the equivalence suite).
func BenchmarkFirstFitEngines(b *testing.B) {
	jobs := GenerateUniform(20000, 64, 64, 1) // heavy fleet: hundreds of concurrently open bins
	for _, kind := range []packing.EngineKind{packing.EngineLinear, packing.EngineIndexed} {
		b.Run(string(kind), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := packing.Run(FirstFit(), jobs, &packing.Options{Engine: kind}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Large-fleet scenarios: the arrival rate scales with n, so the number of
// concurrently open servers B grows linearly with the job count — the
// regime where any O(B) per-event ledger cost turns the whole run
// quadratic (the paper's adversarial constructions and real VM-placement
// traces both live here). Quick mode (-short) shrinks each run 10x.
func benchLargeFleet(b *testing.B, mkAlgo func() Algorithm, kind packing.EngineKind, n int, keepAlive float64, dim int) {
	b.Helper()
	if testing.Short() {
		n /= 10
	}
	jobs, err := workload.FromSpec("uniform", n, float64(n)/100, 8, 1, dim)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	peak := 0
	for i := 0; i < b.N; i++ {
		opt := &packing.Options{KeepAlive: keepAlive, Engine: kind}
		res, err := packing.Run(mkAlgo(), jobs, opt)
		if err != nil {
			b.Fatal(err)
		}
		peak = res.MaxConcurrentOpen
	}
	b.ReportMetric(float64(2*n), "events/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*n*b.N), "ns/event")
	b.ReportMetric(float64(peak), "peak_open")
}

func BenchmarkLargeFleetFirstFitLinear100k(b *testing.B) {
	benchLargeFleet(b, FirstFit, packing.EngineLinear, 100_000, 0, 1)
}
func BenchmarkLargeFleetFirstFitIndexed100k(b *testing.B) {
	benchLargeFleet(b, FirstFit, packing.EngineIndexed, 100_000, 0, 1)
}
func BenchmarkLargeFleetFirstFitLinearKeepAlive100k(b *testing.B) {
	benchLargeFleet(b, FirstFit, packing.EngineLinear, 100_000, 0.5, 1)
}
func BenchmarkLargeFleetFirstFitIndexedKeepAlive100k(b *testing.B) {
	benchLargeFleet(b, FirstFit, packing.EngineIndexed, 100_000, 0.5, 1)
}
func BenchmarkLargeFleetFirstFitIndexedKeepAlive1M(b *testing.B) {
	benchLargeFleet(b, FirstFit, packing.EngineIndexed, 1_000_000, 0.5, 1)
}

// The scaling shape of the indexed engine: ns/event of a 100k-job
// keep-alive run must stay within ~2.5x of the 10k-job run under every
// d=1 policy a single Fleet query answers — firstfit, lastfit, bestfit,
// worstfit, almostworstfit, vectorbestfit and drworstfit — while the
// linear engine's ratio tracks the fleet size. The d=2 rows price the
// queries at d >= 2: firstfit and drworstfit stay logarithmic,
// vectorbestfit walks the total-gap level list in O(log B + k), k the
// non-fitting bins ahead of its answer. The scoring rules no query
// answers — bestfit, worstfit and almostworstfit at d=2, dotfit and
// normfit at any d — scan the open list and are O(B) on both engines
// (make bench-fleet; DESIGN.md §8). The job counts from
// 500 up put the peak open fleet (the peak_open metric) at ≈16, 64, 256,
// 310, 1k and 3k servers, and each size runs the linear engine beside the
// indexed one: the crossover B* where the index starts to win.
func BenchmarkLargeFleetKeepAliveScaling(b *testing.B) {
	rows := []struct {
		dim      int
		policies []string
	}{
		{1, []string{"firstfit", "lastfit", "bestfit", "worstfit", "almostworstfit", "vectorbestfit", "drworstfit", "dotfit", "normfit"}},
		{2, []string{"firstfit", "bestfit", "worstfit", "almostworstfit", "drworstfit", "vectorbestfit", "dotfit", "normfit"}},
	}
	for _, row := range rows {
		for _, policy := range row.policies {
			mk := func() Algorithm {
				algo, err := AlgorithmByName(policy)
				if err != nil {
					b.Fatal(err)
				}
				return algo
			}
			for _, n := range []int{500, 2_000, 8_000, 10_000, 32_000, 100_000} {
				for _, kind := range []packing.EngineKind{packing.EngineLinear, packing.EngineIndexed} {
					b.Run(fmt.Sprintf("d=%d/%s/%s/n=%d", row.dim, policy, kind, n), func(b *testing.B) {
						benchLargeFleet(b, mk, kind, n, 0.5, row.dim)
					})
				}
			}
		}
	}
}

func BenchmarkE14Fleet(b *testing.B)  { benchExperiment(b, "E14") }
func BenchmarkE15Bursty(b *testing.B) { benchExperiment(b, "E15") }

func BenchmarkE16Objectives(b *testing.B) { benchExperiment(b, "E16") }

// batchJobs is the benchmark's sim_vector instance at n jobs: uniform
// sizes at d=2, arrival rate 1100, mean duration 10, seed 1. The rate is
// fixed, so a smaller n is a shorter run of the same traffic.
func batchJobs(b *testing.B, n int) item.List {
	b.Helper()
	jobs, err := workload.FromSpec("uniform", n, 1100, 10, 1, 2)
	if err != nil {
		b.Fatal(err)
	}
	return jobs
}

// orderSink keeps BenchmarkEventOrder's result live.
var orderSink []item.Event

// BenchmarkEventOrder prices the batch path's event order on 100k jobs
// (make bench-run).
func BenchmarkEventOrder(b *testing.B) {
	jobs := batchJobs(b, 100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		orderSink = jobs.Events(false)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*len(jobs)*b.N), "ns/event")
}

// BenchmarkRunBatch is one packing.Run — order, placement and record —
// of vectorbestfit at d=2 with keep-alive 0.5 at 10k and 100k jobs, and
// of firstfit on 100k zipfian jobs at d=1 (arrival rate 600, as
// engine_soak's), where the engine's share of a run is smallest (make
// bench-run). The 10k run is as long as sim_vector's head run, so the
// ratio of the two vectorbestfit ns/event is the Go-benchmark version of
// sim_vector's tail_over_head: about 1 when no per-event cost grows with
// the run.
func BenchmarkRunBatch(b *testing.B) {
	zipfian, err := workload.FromSpec("zipfian", 100_000, 600, 10, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name, algo string
		jobs       item.List
		opt        *packing.Options
	}{
		{"n=10000", "vectorbestfit", batchJobs(b, 10_000), &packing.Options{KeepAlive: 0.5}},
		{"n=100000", "vectorbestfit", batchJobs(b, 100_000), &packing.Options{KeepAlive: 0.5}},
		{"firstfit/zipfian/n=100000", "firstfit", zipfian, nil},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				algo, err := AlgorithmByName(c.algo)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := packing.Run(algo, c.jobs, c.opt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*len(c.jobs)*b.N), "ns/event")
		})
	}
}
