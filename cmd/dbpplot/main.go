// Command dbpplot regenerates the repository's figures as
// self-contained SVGs: the Section VIII Next Fit ratio curve (E2), the
// gap-seal trap convergence to mu (E3), the keep-alive vs hourly-bill
// trade-off (E12), the prediction-noise sweep (E13d), and a Gantt chart
// of a First Fit packing.
//
// Example:
//
//	dbpplot -dir figures
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"dbp"
	"dbp/internal/cloud"
	"dbp/internal/packing"
	"dbp/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dbpplot: ")
	dir := flag.String("dir", "figures", "output directory")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		log.Fatal(err)
	}

	write := func(name, svg string) {
		path := filepath.Join(*dir, name)
		if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Println("wrote", path)
	}

	// Figure 1: Sec. VIII — Next Fit ratio vs n, per mu, with First Fit flat at 1.
	{
		ns := []float64{4, 16, 64, 256, 1024, 4096}
		p := &Plot{
			Title:  "Sec. VIII adversary: Next Fit ratio -> 2mu (First Fit stays at 1)",
			XLabel: "n (log scale)", YLabel: "ALG / OPT", LogX: true,
		}
		for _, mu := range []float64{2, 8, 32} {
			var ys []float64
			for _, n := range ns {
				ys = append(ys, workload.NextFitAdversaryRatioLimit(int(n), mu))
			}
			p.Series = append(p.Series, Series{Name: fmt.Sprintf("NF mu=%g", mu), X: ns, Y: ys})
		}
		p.Series = append(p.Series, Series{Name: "FF (any mu)", X: ns, Y: []float64{1, 1, 1, 1, 1, 1}})
		write("fig_e2_nextfit.svg", p.Render())
	}

	// Figure 2: E3 — trap ratio converging to mu.
	{
		ns := []float64{8, 32, 128, 512, 2048}
		p := &Plot{
			Title:  "Gap-seal trap: First/Best Fit ratio -> mu",
			XLabel: "n (log scale)", YLabel: "measured ratio", LogX: true,
		}
		for _, mu := range []float64{2, 8, 32} {
			var ys []float64
			for _, n := range ns {
				ys = append(ys, workload.AnyFitTrapRatioLimit(int(n), mu))
			}
			p.Series = append(p.Series, Series{Name: fmt.Sprintf("mu=%g", mu), X: ns, Y: ys})
		}
		write("fig_e3_trap.svg", p.Render())
	}

	// Figure 3: E12 — keep-alive vs bill (measured).
	{
		jobs := dbp.GenerateGaming(600, 0.5, *seed)
		plan := cloud.Hourly(0.90, 60)
		kas := []float64{0, 5, 15, 30, 60, 120}
		var bill, idealized []float64
		for _, ka := range kas {
			res, err := dbp.RunKeepAlive(dbp.FirstFit(), jobs, ka)
			if err != nil {
				log.Fatal(err)
			}
			bill = append(bill, cloud.Cost(res, plan).Total)
			// The continuous-billing cost of the same run, for contrast.
			idealized = append(idealized, res.TotalUsage*0.90/60)
		}
		p := &Plot{
			Title:  "Keep-alive vs hourly bill (First Fit, gaming workload)",
			XLabel: "keep-alive (min)", YLabel: "cost ($)",
			Series: []Series{
				{Name: "hourly bill", X: kas, Y: bill},
				{Name: "continuous (usage)", X: kas, Y: idealized},
			},
		}
		write("fig_e12_keepalive.svg", p.Render())
	}

	// Figure 4: E13d — prediction noise sweep (measured).
	{
		lb := dbp.GenerateUniform(300, 3, 10, *seed)
		ff := dbp.MustRun(dbp.FirstFit(), lb)
		sigmas := []float64{0, 0.25, 0.5, 1, 2, 4}
		var rel []float64
		for _, sg := range sigmas {
			res, err := dbp.RunClairvoyant(dbp.PredictiveFit(sg, *seed), lb)
			if err != nil {
				log.Fatal(err)
			}
			rel = append(rel, res.TotalUsage/ff.TotalUsage)
		}
		p := &Plot{
			Title:  "Learning-augmented dispatch: usage vs prediction noise",
			XLabel: "lognormal noise sigma", YLabel: "usage / FirstFit",
			Series: []Series{
				{Name: "PredictiveFit", X: sigmas, Y: rel},
				{Name: "online FF", X: sigmas, Y: []float64{1, 1, 1, 1, 1, 1}},
			},
		}
		write("fig_e13d_predictions.svg", p.Render())
	}

	// Figure 5: Gantt of a First Fit packing.
	{
		jobs := dbp.GenerateUniform(40, 2, 6, *seed)
		res := packing.MustRun(packing.NewFirstFit(), jobs, nil)
		write("fig_gantt_firstfit.svg", Gantt(res, 900))
	}
}
