// Quickstart: generate a random cloud workload, dispatch it online with
// First Fit, and compare the resulting server usage to the offline
// optimum and to Theorem 1's (mu+4) guarantee.
package main

import (
	"fmt"

	"dbp"
)

func main() {
	// 200 jobs, Poisson arrivals at rate 2 per time unit, durations in
	// [1, 8] (so mu <= 8), sizes uniform in [0.05, 0.95].
	jobs := dbp.GenerateUniform(200, 2.0, 8.0, 42)
	fmt.Printf("instance: %d jobs, mu = %.3g, span = %.4g, time-space demand = %.4g\n",
		len(jobs), jobs.Mu(), jobs.Span(), dbp.DemandLowerBound(jobs))

	// Dispatch online with First Fit: each job goes to the earliest-
	// opened server with room; departures are unknown at placement time.
	res, err := dbp.Run(dbp.FirstFit(), jobs)
	if err != nil {
		panic(err)
	}
	fmt.Printf("First Fit: %d servers opened, peak %d concurrent, total usage %.4g\n",
		res.NumBins(), res.MaxConcurrentOpen, res.TotalUsage)

	// How close is that to the offline optimum (which may repack
	// everything at every instant)?
	ratio, _, err := dbp.MeasureRatio(dbp.FirstFit(), jobs)
	if err != nil {
		panic(err)
	}
	fmt.Printf("competitive ratio: %.4f (OPT_total in [%.4g, %.4g])\n",
		ratio.Hi(), ratio.Opt.Lower, ratio.Opt.Upper)
	fmt.Printf("Theorem 1 guarantee: ratio <= mu + 4 = %.4g\n", dbp.Theorem1Bound(jobs.Mu()))
	fmt.Printf("universal limit:   no online algorithm beats mu = %.4g\n", dbp.UniversalLowerBound(jobs.Mu()))

	// The paper's Propositions 1 and 2 explain the OPT lower bound.
	fmt.Printf("Prop 1 (demand): OPT >= %.4g   Prop 2 (span): OPT >= %.4g\n",
		dbp.DemandLowerBound(jobs), dbp.SpanLowerBound(jobs))

	// Compare a few other policies on the same instance.
	for _, algo := range []dbp.Algorithm{dbp.BestFit(), dbp.NextFit(), dbp.HybridFirstFit(2)} {
		r := dbp.MustRun(algo, jobs)
		fmt.Printf("%-18s usage %.4g (%d servers)\n", r.Algorithm+":", r.TotalUsage, r.NumBins())
	}
}
