// Package experiments contains one runnable harness per experiment in
// DESIGN.md (E1–E10), each regenerating a table/series corresponding to a
// quantitative claim of the paper. Every experiment is deterministic
// given Config.Seed and supports a Quick mode (smaller sweeps) used by
// tests; cmd/dbpexp runs the full versions and renders EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"sort"

	"dbp/internal/analysis"
)

// Config controls experiment scale.
type Config struct {
	// Quick shrinks sweeps so the whole suite runs in seconds (used by
	// tests and benchmarks).
	Quick bool
	// Seed drives all random workloads.
	Seed int64
}

// Experiment is one registered harness.
type Experiment struct {
	ID    string
	Title string
	// Claim is the paper artifact the experiment reproduces.
	Claim string
	Run   func(cfg Config) []*analysis.Table
}

// All returns the experiments in ID order.
func All() []Experiment {
	exps := []Experiment{
		{
			ID:    "E1",
			Title: "Theorem 1: First Fit is (mu+4)-competitive",
			Claim: "FF_total(R) <= (mu+4) * OPT_total(R) on every instance",
			Run:   runE1,
		},
		{
			ID:    "E2",
			Title: "Section VIII: Next Fit lower bound 2*mu",
			Claim: "NF ratio n*mu/(n/2+mu) -> 2*mu on the paper's construction",
			Run:   runE2,
		},
		{
			ID:    "E3",
			Title: "Any Fit trap: First Fit and Best Fit pinned near mu",
			Claim: "conservative algorithms cannot beat mu (Sec. I, [12]/[6])",
			Run:   runE3,
		},
		{
			ID:    "E4",
			Title: "Best Fit degradation on the adaptive relay",
			Claim: "Best Fit's ratio grows with victim count at fixed mu; First Fit resists",
			Run:   runE4,
		},
		{
			ID:    "E5",
			Title: "Universal lower bound mu across all policies",
			Claim: "per-policy worst measured ratio over the adversary families",
			Run:   runE5,
		},
		{
			ID:    "E6",
			Title: "Bounds landscape (analytic)",
			Claim: "prior bounds vs Theorem 1's mu+4; gap to the lower bound is the constant 4",
			Run:   runE6,
		},
		{
			ID:    "E7",
			Title: "Proof machinery: usage-period decomposition and subperiods",
			Claim: "Section IV identities and Propositions 3-6 hold on real packings",
			Run:   runE7,
		},
		{
			ID:    "E8",
			Title: "Cloud gaming dispatch and pay-as-you-go billing",
			Claim: "usage time is the continuous limit of per-hour renting cost (Sec. I motivation)",
			Run:   runE8,
		},
		{
			ID:    "E9",
			Title: "Algorithm comparison on registered statistical scenarios",
			Claim: "First Fit is near-optimal in practice across loads and distributions",
			Run:   runE9,
		},
		{
			ID:    "E10",
			Title: "Multi-dimensional extension (future work, Sec. IX)",
			Claim: "vector-demand dispatch with per-dimension capacity",
			Run:   runE10,
		},
		{
			ID:    "E11",
			Title: "Supplier-period reconstruction sweep (Secs. VI-VII)",
			Claim: "Lemma 2 disjointness census and amortized utilization under candidate constants",
			Run:   runE11,
		},
		{
			ID:    "E12",
			Title: "Server keep-alive under hourly billing",
			Claim: "lingering within the paid billing quantum can lower the bill despite higher usage",
			Run:   runE12,
		},
		{
			ID:    "E13",
			Title: "Ablations: event-order ties, bounded-space Next-k Fit, clairvoyance",
			Claim: "design choices called out in DESIGN.md §6 quantified",
			Run:   runE13,
		},
		{
			ID:    "E14",
			Title: "Heterogeneous fleet with sub-linear tier pricing",
			Claim: "tier choice interacts with packing policy; always-large reproduces the unit model",
			Run:   runE14,
		},
		{
			ID:    "E15",
			Title: "Arrival shape: smooth vs bursty (MMPP) vs diurnal",
			Claim: "flash crowds widen the spread between policies at equal average load",
			Run:   runE15,
		},
		{
			ID:    "E16",
			Title: "Objective contrast: classical DBP (peak bins) vs MinUsageTime",
			Claim: "the classical peak-bins objective understates the renting cost by an order of magnitude on the Sec. VIII instance (peak ratio < 2 vs usage ratio 12.8)",
			Run:   runE16,
		},
	}
	sort.Slice(exps, func(i, j int) bool {
		return len(exps[i].ID) < len(exps[j].ID) || (len(exps[i].ID) == len(exps[j].ID) && exps[i].ID < exps[j].ID)
	})
	return exps
}

// ByID returns the experiment with the given ID (case-sensitive).
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown id %q (E1..E16)", id)
}

// fmtBool renders a pass/fail cell.
func fmtBool(ok bool) string {
	if ok {
		return "yes"
	}
	return "NO"
}
