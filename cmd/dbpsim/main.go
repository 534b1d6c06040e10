// Command dbpsim runs one online packing policy over a workload — read
// from a trace file or generated on the fly — and reports the objectives,
// the competitive ratio against a certified OPT bracket, and optionally
// the renting cost under pay-as-you-go billing.
//
// Examples:
//
//	dbpsim -gen uniform -n 200 -rate 2 -mu 8 -algo firstfit
//	dbpsim -gen gaming -n 500 -rate 0.5 -algo bestfit -hourly 0.90
//	dbpsim -trace jobs.csv -algo nextfit -v
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"dbp"
	"dbp/internal/analysis"
	"dbp/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dbpsim: ")

	var (
		algoName  = flag.String("algo", "firstfit", "policy: "+strings.Join(dbp.AlgorithmNames(), ", "))
		tracePath = flag.String("trace", "", "trace file to replay (.csv or .json, .gz transparent)")
		gen       = flag.String("gen", "", "generate workload: scenario spec name or name:key=value,... (see -list-workloads)")
		listWl    = flag.Bool("list-workloads", false, "print every registered workload scenario with its parameter schema and exit")
		n         = flag.Int("n", 200, "number of jobs (with -gen)")
		rate      = flag.Float64("rate", 2, "arrival rate (with -gen)")
		mu        = flag.Float64("mu", 8, "duration ratio bound (uniform/pareto)")
		seed      = flag.Int64("seed", 1, "random seed (with -gen)")
		hourly    = flag.Float64("hourly", 0, "if > 0: price the run at this $/hour (time unit = minutes)")
		noRatio   = flag.Bool("noratio", false, "skip OPT computation (fast for big instances)")
		verbose   = flag.Bool("v", false, "print the bin-by-bin packing")
		gantt     = flag.Bool("gantt", false, "draw an ASCII timeline of the packing")
		assignOut = flag.String("assign", "", "write the per-job server assignment CSV to this file")
	)
	flag.Parse()
	if *listWl {
		workload.List(os.Stdout)
		return
	}

	spec := *gen
	if *tracePath != "" {
		spec = "trace:" + *tracePath
	}
	jobs, err := workload.FromSpec(spec, *n, *rate, *mu, *seed, 1)
	if err != nil {
		log.Fatal(err)
	}
	algo, err := dbp.AlgorithmByName(*algoName)
	if err != nil {
		log.Fatal(err)
	}

	res, err := dbp.Run(algo, jobs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.String())
	fmt.Printf("instance: n=%d mu=%.4g span=%.6g demand=%.6g\n",
		len(jobs), jobs.Mu(), jobs.Span(), dbp.DemandLowerBound(jobs))

	if !*noRatio {
		ratio, _, err := dbp.MeasureRatio(algo, jobs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(ratio.String())
		fmt.Printf("Theorem 1 reference: mu+4 = %.4g (First Fit bound); universal lower bound: mu = %.4g\n",
			dbp.Theorem1Bound(jobs.Mu()), dbp.UniversalLowerBound(jobs.Mu()))
	}
	if *hourly > 0 {
		iv := dbp.CostOf(res, dbp.HourlyBilling(*hourly, 60))
		fmt.Printf("billing: %s\n", iv.String())
	}
	if *verbose {
		fmt.Print(res.Describe())
	}
	if *gantt {
		fmt.Print(analysis.RenderTimeline(res, 100))
	}
	if *assignOut != "" {
		f, err := os.Create(*assignOut)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := dbp.WriteAssignment(f, res); err != nil {
			log.Fatal(err)
		}
	}
}
