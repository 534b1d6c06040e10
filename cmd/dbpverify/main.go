// Command dbpverify runs the full validation stack over a packing of a
// workload: the physical re-check of the placement history
// (Result.Verify), the Section IV usage-period identities, the Section V
// subperiod propositions (First Fit runs), the supplier-period census,
// Theorem 1's bound against a certified OPT bracket, and the
// cross-engine consistency of the indexed and linear placement engines.
// It is the "trust but verify" tool for traces produced elsewhere.
//
// With -dim > 1 the workload carries vector demands and the run becomes
// a DVBP verification: the scalar-only analyses (Sec. IV/V identities,
// Theorem 1) do not apply and are skipped, and instead EVERY vector
// policy is checked for bit-identical agreement between the
// d-dimensional index and the linear reference engine.
//
// Examples:
//
//	dbpverify -gen uniform -n 300 -mu 8
//	dbpverify -gen uniform -n 300 -dim 2
//	dbpverify -trace jobs.csv -algo bestfit
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"

	"dbp"
	"dbp/internal/analysis"
	"dbp/internal/opt"
	"dbp/internal/packing"
	"dbp/internal/trace"
	"dbp/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dbpverify: ")

	var (
		algoName  = flag.String("algo", "firstfit", "policy: "+strings.Join(dbp.AlgorithmNames(), ", "))
		tracePath = flag.String("trace", "", "trace file to verify (.csv or .json, .gz transparent)")
		gen       = flag.String("gen", "", "generate workload: scenario spec name or name:key=value,... (see -list-workloads)")
		listWl    = flag.Bool("list-workloads", false, "print every registered workload scenario with its parameter schema and exit")
		n         = flag.Int("n", 200, "number of jobs (with -gen)")
		rate      = flag.Float64("rate", 2, "arrival rate (with -gen)")
		mu        = flag.Float64("mu", 8, "duration ratio bound")
		seed      = flag.Int64("seed", 1, "random seed (with -gen)")
		dim       = flag.Int("dim", 1, "resource dimensionality (with -gen; > 1 runs the DVBP verification)")
		assignIn  = flag.String("assign", "", "verify an external assignment CSV (id,bin,size,arrival,departure) instead of running a policy")
	)
	flag.Parse()
	if *listWl {
		workload.List(os.Stdout)
		return
	}

	if *assignIn != "" {
		verifyExternal(*assignIn)
		return
	}

	spec := *gen
	if *tracePath != "" {
		spec = "trace:" + *tracePath
	}
	jobs, err := workload.FromSpec(spec, *n, *rate, *mu, *seed, *dim)
	if err != nil {
		log.Fatal(err)
	}
	algo, err := dbp.AlgorithmByName(*algoName)
	if err != nil {
		log.Fatal(err)
	}

	failures := 0
	check := func(name string, err error) {
		if err != nil {
			failures++
			fmt.Printf("FAIL  %-34s %v\n", name, err)
			return
		}
		fmt.Printf("ok    %s\n", name)
	}

	check("instance validation", jobs.Validate())

	res, err := packing.Run(algo, jobs, &packing.Options{Validate: true})
	check("simulation (per-event invariants)", err)
	if err != nil {
		os.Exit(1)
	}
	check("physical re-verification", res.Verify())

	if *dim > 1 {
		// DVBP verification: the paper's Sec. IV/V identities and
		// Theorem 1 are scalar theory, so the d-dimensional run instead
		// pins what the vector engine guarantees — every vector policy
		// packs bit-identically on the d-dimensional index and the
		// linear reference engine.
		var names []string // in name order, so the report reads the same every run
		for name := range packing.Vector() {
			names = append(names, name)
		}
		slices.Sort(names)
		for _, name := range names {
			vAlgo, err := packing.ByName(name)
			if err != nil {
				log.Fatal(err)
			}
			vIdx, err := packing.Run(vAlgo, jobs, &packing.Options{Engine: packing.EngineIndexed, Validate: true})
			if err != nil {
				check("vector engine consistency: "+name, err)
				continue
			}
			vLin, err := packing.Run(vAlgo, jobs, &packing.Options{Engine: packing.EngineLinear})
			if err != nil {
				check("vector engine consistency: "+name, err)
				continue
			}
			check("vector engine consistency: "+name, sameResult(vIdx, vLin))
		}
	} else {
		dec := analysis.Decompose(res)
		check("Sec. IV identities (V/W, span)", dec.Verify())

		if res.Algorithm == "FirstFit" {
			sps := analysis.SubperiodsOf(res)
			check("Sec. V propositions 3-6", analysis.VerifySubperiods(res, sps))
			groups := analysis.BuildLGroups(sps, analysis.DefaultSupplierParams())
			census := analysis.CheckSupplierDisjointness(groups)
			fmt.Printf("info  supplier census: %s\n", census.String())
		}
	}

	// res ran on the default indexed engine; the linear reference engine
	// must produce the identical packing for every policy.
	lin, lerr := packing.Run(algo, jobs, &packing.Options{Engine: packing.EngineLinear})
	if lerr != nil {
		check("indexed/linear engine consistency", lerr)
	} else {
		check("indexed/linear engine consistency", sameResult(res, lin))
	}

	if *dim > 1 {
		fmt.Printf("info  %s; dim = %d\n", res.String(), *dim)
	} else {
		b := opt.Total(jobs, opt.ExactLimit)
		bound := analysis.FirstFitUpperBound(jobs.Mu())
		if res.Algorithm == "FirstFit" && res.TotalUsage > bound*b.Upper+1e-6 {
			check("Theorem 1 bound", fmt.Errorf("usage %g > (mu+4)*OPT_upper %g", res.TotalUsage, bound*b.Upper))
		} else {
			check("Theorem 1 bound", nil)
		}
		fmt.Printf("info  %s; OPT in [%.6g, %.6g]; mu = %.4g\n", res.String(), b.Lower, b.Upper, jobs.Mu())
	}

	if failures > 0 {
		log.Fatalf("%d checks failed", failures)
	}
	fmt.Println("all checks passed")
}

// verifyExternal replays a third-party assignment, verifies its physical
// legality, and benchmarks it against First Fit and the OPT bracket.
func verifyExternal(path string) {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	jobs, assign, err := trace.ReadAssignment(f)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := packing.Replay(jobs, assign)
	if err != nil {
		log.Fatalf("assignment is not a legal packing: %v", err)
	}
	if err := rep.Verify(); err != nil {
		log.Fatalf("replay verification failed: %v", err)
	}
	ff := packing.MustRun(packing.NewFirstFit(), jobs, nil)
	b := opt.Total(jobs, opt.ExactLimit)
	fmt.Printf("external packing is legal: %s\n", rep.String())
	fmt.Printf("First Fit on the same instance: usage %.6g (%d servers)\n", ff.TotalUsage, ff.NumBins())
	fmt.Printf("OPT_total in [%.6g, %.6g]; external ratio <= %.4f, FF ratio <= %.4f\n",
		b.Lower, b.Upper, rep.TotalUsage/b.Lower, ff.TotalUsage/b.Lower)
}

func sameResult(a, b *dbp.Result) error {
	if a.TotalUsage != b.TotalUsage || a.NumBins() != b.NumBins() {
		return fmt.Errorf("engines disagree: %g/%d vs %g/%d bins",
			a.TotalUsage, a.NumBins(), b.TotalUsage, b.NumBins())
	}
	for i, bin := range a.Server {
		if b.Server[i] != bin {
			return fmt.Errorf("engines assign item %d differently", a.Items[i].ID)
		}
	}
	return nil
}
