// Command tracegen generates workload traces — any scenario registered
// in the workload registry (random cloud workloads, the skew families,
// the synthetic gaming catalog, or the paper's adversarial constructions)
// — and writes them as CSV or JSON for dbpsim and external tools. Output
// files named *.gz are gzip-compressed transparently.
//
// Examples:
//
//	tracegen -gen uniform -n 1000 -rate 4 -mu 16 -o jobs.csv
//	tracegen -gen zipfian:alpha=1.3 -n 2000 -rate 1 -o skewed.csv.gz
//	tracegen -gen gaming -n 2000 -rate 1 -format json -o sessions.json
//	tracegen -gen nextfit-adv -n 64 -mu 8 -o adversary.csv
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"dbp"
	"dbp/internal/trace"
	"dbp/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracegen: ")

	var (
		gen    = flag.String("gen", "", "workload scenario spec: name or name:key=value,... (see -list-workloads)")
		n      = flag.Int("n", 500, "number of jobs (the size parameter of an adversarial scenario)")
		rate   = flag.Float64("rate", 2, "arrival rate")
		mu     = flag.Float64("mu", 8, "duration ratio")
		seed   = flag.Int64("seed", 1, "random seed")
		format = flag.String("format", "csv", "stdout format: csv or json (files are named by extension, .gz transparent)")
		out    = flag.String("o", "", "output file (default stdout)")
		stats  = flag.Bool("stats", false, "print trace statistics to stderr")
		listWl = flag.Bool("list-workloads", false, "print every registered workload scenario with its parameter schema and exit")
	)
	flag.Parse()
	if *listWl {
		workload.List(os.Stdout)
		return
	}

	jobs, err := workload.FromSpec(*gen, *n, *rate, *mu, *seed, 1)
	if err != nil {
		log.Fatal(err)
	}

	if *out != "" {
		// File output picks the codec from the extension (.csv/.json,
		// .gz transparent) so the format travels with the name.
		if err := trace.WriteFile(*out, jobs); err != nil {
			log.Fatal(err)
		}
	} else {
		switch *format {
		case "csv":
			err = dbp.WriteTraceCSV(os.Stdout, jobs)
		case "json":
			err = dbp.WriteTraceJSON(os.Stdout, jobs)
		default:
			err = fmt.Errorf("unknown format %q", *format)
		}
		if err != nil {
			log.Fatal(err)
		}
	}
	if *stats {
		fmt.Fprintln(os.Stderr, trace.Summarize(jobs).String())
	}
}
