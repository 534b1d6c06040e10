package packing_test

// Cross-engine equivalence: the indexed engine (BinIndex queries) and the
// linear reference engine (O(B) scans with the same exact tie-breaking)
// must produce bit-identical packings for every standard policy. The
// linear engine is the executable specification; this suite is the oracle
// guarding the gap segment tree and the level-ordered index under both
// statistical (Poisson, MMPP) and adversarial workloads, with and
// without keep-alive — through the batch Run path and the online Stream
// path. External package: the workloads live in internal/workload, which
// itself imports packing.

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"dbp/internal/item"
	"dbp/internal/packing"
	"dbp/internal/workload"
)

// sampleTrace is the committed instance the "trace" scenario replays in
// this suite (written by tracegen; gzip output is byte-deterministic).
const sampleTrace = "../workload/testdata/sample.csv.gz"

// equivWorkloads returns one scalar instance per REGISTERED scenario —
// statistical, adversarial, and trace replay alike — so any scenario
// joining the registry is automatically packed bit-identically on both
// engines. Sizes are modest: the point is coverage of placement
// decisions, not throughput. mu=8 satisfies every scenario's bounds
// (stress needs mu > 1, bestfit-relay mu >= 2); for the adversaries n
// is the construction parameter.
func equivWorkloads(t *testing.T) map[string]item.List {
	t.Helper()
	out := map[string]item.List{}
	for _, s := range workload.Scenarios() {
		spec := s.Name()
		if s.Kind() == workload.KindTrace {
			spec = "trace:" + sampleTrace
		}
		l, err := workload.FromSpec(spec, 240, 6, 8, 11, 1)
		if err != nil {
			t.Fatalf("scenario %s: %v", s.Name(), err)
		}
		out[s.Name()] = l
	}
	// One extra MMPP shape with short, violent bursts — historically the
	// best generator of keep-alive edge cases.
	out["mmpp-violent"] = workload.GenerateBursty(workload.BurstyConfig{
		Config:      workload.UniformConfig(400, 3, 8, 12),
		BurstFactor: 8, MeanCalm: 4, MeanBurst: 1,
	})
	return out
}

func sameRun(t *testing.T, label string, a, b *packing.Result) {
	t.Helper()
	if a.TotalUsage != b.TotalUsage {
		t.Fatalf("%s: usage %g (indexed) != %g (linear)", label, a.TotalUsage, b.TotalUsage)
	}
	if a.NumBins() != b.NumBins() || a.MaxConcurrentOpen != b.MaxConcurrentOpen {
		t.Fatalf("%s: fleet shape %d/%d (indexed) != %d/%d (linear)",
			label, a.NumBins(), a.MaxConcurrentOpen, b.NumBins(), b.MaxConcurrentOpen)
	}
	if len(a.Server) != len(b.Server) {
		t.Fatalf("%s: %d vs %d assignments", label, len(a.Server), len(b.Server))
	}
	for i, bin := range a.Server {
		if other := b.Server[i]; other != bin {
			t.Fatalf("%s: job %d -> bin %d (indexed) vs %d (linear)", label, a.Items[i].ID, bin, other)
		}
	}
}

// equivVectorWorkloads returns the d-dimensional instances. At d=2 it
// sweeps EVERY registered generator with a vector-demand form (scalar-only
// ones are skipped via ErrScalarOnly, the trace scenario because the
// committed sample is scalar); at higher d it keeps a Poisson
// trace with independent vector demands. Both dimensions add a
// complementary-demand adversary — job i is heavy (0.6) in dimension
// i mod d and light (0.05) everywhere else, with staggered lifetimes —
// built so that which server fits is decided by a DIFFERENT dimension
// from one arrival to the next, the worst case for any per-dimension
// pruning structure that dares to cut a subtree it shouldn't.
func equivVectorWorkloads(t *testing.T, d int) map[string]item.List {
	t.Helper()
	out := map[string]item.List{}
	if d == 2 {
		for _, s := range workload.Scenarios() {
			if s.Kind() == workload.KindTrace {
				continue // a trace's dimensionality is its file's: the sample is scalar
			}
			l, err := workload.FromSpec(s.Name(), 160, 5, 8, int64(17+d), d)
			if errors.Is(err, workload.ErrScalarOnly) {
				continue
			}
			if err != nil {
				t.Fatalf("scenario %s (d=%d): %v", s.Name(), d, err)
			}
			out[s.Name()] = l
		}
	} else {
		out["vecpoisson"] = workload.GenerateVec(workload.UniformConfig(300, 5, 8, int64(17+d)), d)
	}
	adv := make(item.List, 0, 120)
	for i := 0; i < 120; i++ {
		sizes := make([]float64, d)
		for k := range sizes {
			sizes[k] = 0.05
		}
		sizes[i%d] = 0.6
		arr := float64(i) * 0.25
		adv = append(adv, item.Item{
			ID: item.ID(i + 1), Size: 0.6, Sizes: sizes,
			Arrival: arr, Departure: arr + 3 + float64(i%7),
		})
	}
	out["complement"] = adv
	return out
}

// equivPolicies is every policy the oracle covers: the standard scalar
// family plus the DVBP vector family (all of which accept both scalar
// and vector demands).
func equivPolicies() map[string]packing.Algorithm {
	m := packing.Standard()
	for k, v := range packing.Vector() {
		m[k] = v
	}
	return m
}

// TestEnginesEquivalentAcrossPolicies is the batch-path half of the
// oracle: packing.Run on both engines, every Standard policy, every
// workload, keep-alive off and on.
func TestEnginesEquivalentAcrossPolicies(t *testing.T) {
	for wname, jobs := range equivWorkloads(t) {
		for _, keepAlive := range []float64{0, 0.7} {
			for pname, algo := range packing.Standard() {
				label := fmt.Sprintf("%s/%s/ka=%g", wname, pname, keepAlive)
				idx, err := packing.Run(algo, jobs, &packing.Options{
					KeepAlive: keepAlive, Engine: packing.EngineIndexed, Validate: true,
				})
				if err != nil {
					t.Fatalf("%s indexed: %v", label, err)
				}
				lin, err := packing.Run(algo, jobs, &packing.Options{
					KeepAlive: keepAlive, Engine: packing.EngineLinear, Validate: true,
				})
				if err != nil {
					t.Fatalf("%s linear: %v", label, err)
				}
				sameRun(t, label, idx, lin)
			}
		}
	}
}

// TestStreamEnginesEquivalentAcrossPolicies is the online-path half:
// both engines fed the identical event sequence through Stream must
// agree on every per-event decision — server id, open/close actions —
// not just the final aggregates.
func TestStreamEnginesEquivalentAcrossPolicies(t *testing.T) {
	for wname, jobs := range equivWorkloads(t) {
		for _, keepAlive := range []float64{0, 0.7} {
			// The two streams run interleaved, so stateful policies (Next
			// Fit's current bin, Hybrid's class maps) need one instance per
			// stream; Standard() returns fresh instances on every call.
			linAlgos := packing.Standard()
			for pname, algo := range packing.Standard() {
				label := fmt.Sprintf("%s/%s/ka=%g", wname, pname, keepAlive)
				idx, err := packing.NewStreamEngine(algo, 0, 0, keepAlive, packing.EngineIndexed)
				if err != nil {
					t.Fatal(err)
				}
				lin, err := packing.NewStreamEngine(linAlgos[pname], 0, 0, keepAlive, packing.EngineLinear)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range jobs.Events(false) {
					if e.Kind == item.Arrive {
						s1, o1, err1 := idx.Arrive(e.Item.ID, e.Item.Size, e.Item.Sizes, e.Time)
						s2, o2, err2 := lin.Arrive(e.Item.ID, e.Item.Size, e.Item.Sizes, e.Time)
						if err1 != nil || err2 != nil {
							t.Fatalf("%s: arrive errors %v / %v", label, err1, err2)
						}
						if s1 != s2 || o1 != o2 {
							t.Fatalf("%s: job %d -> server %d opened=%v (indexed) vs %d opened=%v (linear)",
								label, e.Item.ID, s1, o1, s2, o2)
						}
					} else {
						s1, c1, err1 := idx.Depart(e.Item.ID, e.Time)
						s2, c2, err2 := lin.Depart(e.Item.ID, e.Time)
						if err1 != nil || err2 != nil {
							t.Fatalf("%s: depart errors %v / %v", label, err1, err2)
						}
						if s1 != s2 || c1 != c2 {
							t.Fatalf("%s: job %d departed server %d closed=%v vs %d closed=%v",
								label, e.Item.ID, s1, c1, s2, c2)
						}
					}
				}
				idx.Shutdown()
				lin.Shutdown()
				end := jobs.PackingPeriod().Hi + keepAlive
				u1, u2 := idx.AccumulatedUsage(end), lin.AccumulatedUsage(end)
				if math.Abs(u1-u2) > 0 {
					t.Fatalf("%s: usage %g (indexed) != %g (linear)", label, u1, u2)
				}
				if idx.ServersUsed() != lin.ServersUsed() || idx.PeakServers() != lin.PeakServers() {
					t.Fatalf("%s: fleet shape mismatch", label)
				}
			}
		}
	}
}

// TestEnginesEquivalentVector is the d-dimensional batch-path oracle:
// the vector index (per-dimension gap trees + dominant-resource list)
// against the linear reference, for every standard AND vector policy,
// d in {2, 4}, keep-alive off and on.
func TestEnginesEquivalentVector(t *testing.T) {
	for _, d := range []int{2, 4} {
		for wname, jobs := range equivVectorWorkloads(t, d) {
			for _, keepAlive := range []float64{0, 0.7} {
				for pname, algo := range equivPolicies() {
					label := fmt.Sprintf("d=%d/%s/%s/ka=%g", d, wname, pname, keepAlive)
					idx, err := packing.Run(algo, jobs, &packing.Options{
						KeepAlive: keepAlive, Engine: packing.EngineIndexed, Validate: true,
					})
					if err != nil {
						t.Fatalf("%s indexed: %v", label, err)
					}
					lin, err := packing.Run(algo, jobs, &packing.Options{
						KeepAlive: keepAlive, Engine: packing.EngineLinear, Validate: true,
					})
					if err != nil {
						t.Fatalf("%s linear: %v", label, err)
					}
					sameRun(t, label, idx, lin)
				}
			}
		}
	}
}

// TestStreamEnginesEquivalentVector is the d-dimensional online-path
// oracle: identical per-event decisions from both engines for every
// standard and vector policy on the vector workloads.
func TestStreamEnginesEquivalentVector(t *testing.T) {
	for _, d := range []int{2, 4} {
		for wname, jobs := range equivVectorWorkloads(t, d) {
			for _, keepAlive := range []float64{0, 0.7} {
				linAlgos := equivPolicies()
				for pname, algo := range equivPolicies() {
					label := fmt.Sprintf("d=%d/%s/%s/ka=%g", d, wname, pname, keepAlive)
					idx, err := packing.NewStreamEngine(algo, 0, d, keepAlive, packing.EngineIndexed)
					if err != nil {
						t.Fatal(err)
					}
					lin, err := packing.NewStreamEngine(linAlgos[pname], 0, d, keepAlive, packing.EngineLinear)
					if err != nil {
						t.Fatal(err)
					}
					for _, e := range jobs.Events(false) {
						if e.Kind == item.Arrive {
							s1, o1, err1 := idx.Arrive(e.Item.ID, e.Item.Size, e.Item.Sizes, e.Time)
							s2, o2, err2 := lin.Arrive(e.Item.ID, e.Item.Size, e.Item.Sizes, e.Time)
							if err1 != nil || err2 != nil {
								t.Fatalf("%s: arrive errors %v / %v", label, err1, err2)
							}
							if s1 != s2 || o1 != o2 {
								t.Fatalf("%s: job %d -> server %d opened=%v (indexed) vs %d opened=%v (linear)",
									label, e.Item.ID, s1, o1, s2, o2)
							}
						} else {
							s1, c1, err1 := idx.Depart(e.Item.ID, e.Time)
							s2, c2, err2 := lin.Depart(e.Item.ID, e.Time)
							if err1 != nil || err2 != nil {
								t.Fatalf("%s: depart errors %v / %v", label, err1, err2)
							}
							if s1 != s2 || c1 != c2 {
								t.Fatalf("%s: job %d departed server %d closed=%v vs %d closed=%v",
									label, e.Item.ID, s1, c1, s2, c2)
							}
						}
					}
					idx.Shutdown()
					lin.Shutdown()
					end := jobs.PackingPeriod().Hi + keepAlive
					if u1, u2 := idx.AccumulatedUsage(end), lin.AccumulatedUsage(end); u1 != u2 {
						t.Fatalf("%s: usage %g (indexed) != %g (linear)", label, u1, u2)
					}
					if idx.ServersUsed() != lin.ServersUsed() || idx.PeakServers() != lin.PeakServers() {
						t.Fatalf("%s: fleet shape mismatch", label)
					}
				}
			}
		}
	}
}
