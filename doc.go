// Package dbp implements MinUsageTime Dynamic Bin Packing — online
// dispatch of jobs with unknown departure times onto rented servers so as
// to minimize total server usage time — reproducing "On First Fit Bin
// Packing for Online Cloud Server Allocation" (Tang, Li, Ren, Cai; IEEE
// IPDPS 2016).
//
// The paper's main result (Theorem 1) is that First Fit is
// (mu+4)-competitive for this problem, where mu is the ratio of the
// longest to the shortest job duration — within an additive constant 4 of
// the universal lower bound mu that no online algorithm can beat. This
// module provides:
//
//   - the online packing algorithms the paper discusses (First Fit, Best
//     Fit, Worst Fit, Last Fit, Next Fit, Random Fit, and size-classifying
//     Hybrid variants), run by a deterministic event simulator
//     (Run/MustRun) or driven job-by-job (NewDispatcher);
//   - the offline optimum OPT_total(R) = ∫ OPT(R,t) dt, solved exactly by
//     branch and bound per timeline segment or bracketed with certified
//     bounds (OptExact), plus the paper's Propositions 1–2;
//   - workload generators (Poisson arrivals with pluggable size/duration
//     distributions, a synthetic cloud-gaming catalog) and the paper's
//     adversarial lower-bound constructions (Sec. VIII's Next Fit
//     instance, the gap-seal trap, an adaptive Best Fit relay);
//   - competitive-ratio measurement (MeasureRatio) and the theoretical
//     bounds landscape (Theorem1Bound and friends);
//   - trace I/O (CSV/JSON) and pay-as-you-go billing models that map
//     usage time to renting cost.
//
// Quick start:
//
//	jobs := dbp.GenerateUniform(100, 2.0, 8.0, 1) // n, rate, mu, seed
//	res, err := dbp.Run(dbp.FirstFit(), jobs)
//	if err != nil { ... }
//	fmt.Println(res.TotalUsage, res.NumBins())
//	ratio, _, _ := dbp.MeasureRatio(dbp.FirstFit(), jobs)
//	fmt.Println(ratio.Hi(), "<=", dbp.Theorem1Bound(jobs.Mu()))
//
// See examples/ for runnable programs and DESIGN.md for the experiment
// index reproducing every quantitative claim of the paper.
package dbp
