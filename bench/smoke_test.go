package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload and the ladder at a hundredth of their size
// and checks that each metric BENCHMARK.json names is emitted and finite.
func TestSmoke(t *testing.T) {
	s, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if s.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q here", i, s.Workloads[i].Name, w.name)
		}
		for _, seed := range []int64{1, 2} {
			r, err := runWorkload(s, w, seed, 0, 0.01)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Attempted == 0 || r.Reps != minReps {
				t.Errorf("%s seed %d: correct %v, attempted %d, failed %d, reps %d", w.name, seed, r.Correct, r.Attempted, r.Failed, r.Reps)
			}
			if len(r.Metrics) != len(s.EndToEnd) {
				t.Errorf("%s: %d metrics, BENCHMARK.json names %d", w.name, len(r.Metrics), len(s.EndToEnd))
			}
			for _, m := range s.EndToEnd {
				v, ok := r.Metrics[m.Name]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value <= 0 {
					t.Errorf("%s seed %d: %s = %v (emitted: %v)", w.name, seed, m.Name, v.Value, ok)
				}
			}
			if u := r.Metrics["usage_ratio"].Value; u < 1 {
				t.Errorf("%s seed %d: usage_ratio %v is below the lower bound", w.name, seed, u)
			}
		}
	}

	ld, err := runLadder(1, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if ld.failed != 0 || ld.attempted == 0 {
		t.Errorf("ladder: %d of %d checks failed", ld.failed, ld.attempted)
	}
	if len(ld.metrics) != len(s.PerLayer) {
		t.Errorf("ladder: %d metrics, BENCHMARK.json names %d", len(ld.metrics), len(s.PerLayer))
	}
	for _, m := range s.PerLayer {
		if v, ok := ld.metrics[m.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("ladder: %s = %v (emitted: %v)", m.Name, v, ok)
		}
	}
	if sum := ld.selfSumOverRTT(); math.Abs(sum-1) > 0.15 {
		t.Errorf("ladder: self times sum to %.3f of the round trip", sum)
	}
	env, err := stampEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	if err := ld.writeTrace(env); err != nil {
		t.Fatal(err)
	}
	if info, err := os.Stat(filepath.Join(outDir, "trace.json")); err != nil || info.Size() == 0 {
		t.Errorf("trace.json: %v", err)
	}
}
