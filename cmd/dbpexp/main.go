// Command dbpexp runs the experiment suite (E1–E10 from DESIGN.md), each
// regenerating a table corresponding to a quantitative claim of the paper
// "On First Fit Bin Packing for Online Cloud Server Allocation" (IPDPS
// 2016), and renders the results as plain text or markdown.
//
// Examples:
//
//	dbpexp                  # run everything, full size
//	dbpexp -exp E2,E6       # selected experiments
//	dbpexp -quick -md -o EXPERIMENTS-data.md
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"dbp/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dbpexp: ")

	var (
		expFlag = flag.String("exp", "all", "comma-separated experiment ids (E1..E16) or 'all'")
		quick   = flag.Bool("quick", false, "small sweeps (seconds instead of minutes)")
		seed    = flag.Int64("seed", 1, "random seed")
		md      = flag.Bool("md", false, "render markdown instead of plain text")
		out     = flag.String("o", "", "output file (default stdout)")
	)
	flag.Parse()

	var selected []experiments.Experiment
	if *expFlag == "all" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			e, err := experiments.ByID(strings.TrimSpace(id))
			if err != nil {
				log.Fatal(err)
			}
			selected = append(selected, e)
		}
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}

	cfg := experiments.Config{Quick: *quick, Seed: *seed}
	for _, e := range selected {
		start := time.Now()
		tables := e.Run(cfg)
		elapsed := time.Since(start)
		if *md {
			fmt.Fprintf(w, "## %s: %s\n\n", e.ID, e.Title)
			fmt.Fprintf(w, "*Claim:* %s\n\n", e.Claim)
			for _, tb := range tables {
				fmt.Fprintln(w, tb.Markdown())
			}
			fmt.Fprintf(w, "*(generated in %v)*\n\n", elapsed.Round(time.Millisecond))
		} else {
			fmt.Fprintf(w, "=== %s: %s\n", e.ID, e.Title)
			fmt.Fprintf(w, "    claim: %s\n\n", e.Claim)
			for _, tb := range tables {
				fmt.Fprintln(w, tb.String())
			}
			fmt.Fprintf(w, "    (%v)\n\n", elapsed.Round(time.Millisecond))
		}
	}
}
