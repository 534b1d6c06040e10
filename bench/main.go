// Command bench is the repository's one benchmark: four closed-loop
// workloads with eight gated end-to-end metrics and a failure count, and a
// layer ladder from bins to wire. README.md beside it says what each
// number means and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// spec mirrors BENCHMARK.json, the one place that names the metrics, their
// units and their bounds.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec() (spec, error) {
	var s spec
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return s, nil
}

// environment is stamped into every report.
type environment struct {
	NProc              int     `json:"nproc"`
	GOMAXPROCS         int     `json:"gomaxprocs"`
	GoVersion          string  `json:"go_version"`
	Commit             string  `json:"commit"`
	DataDirFS          string  `json:"data_dir_fs"`
	LoadAvgAtStart     float64 `json:"load_avg_at_start"`
	GeneratorColocated bool    `json:"generator_colocated"`
}

func stampEnvironment() (environment, error) {
	env := environment{
		NProc:              runtime.NumCPU(),
		GOMAXPROCS:         runtime.GOMAXPROCS(0),
		GoVersion:          runtime.Version(),
		Commit:             commit(),
		DataDirFS:          "unknown",
		GeneratorColocated: true,
	}
	if env.GOMAXPROCS > env.NProc {
		return env, fmt.Errorf("GOMAXPROCS %d exceeds nproc %d: the load would not be this box's", env.GOMAXPROCS, env.NProc)
	}
	var fs syscall.Statfs_t
	if err := syscall.Statfs(".", &fs); err == nil {
		names := map[int64]string{0xEF53: "ext4", 0x01021994: "tmpfs", 0x794C7630: "overlayfs", 0x58465342: "xfs", 0x9123683E: "btrfs"}
		if env.DataDirFS = names[int64(fs.Type)]; env.DataDirFS == "" {
			env.DataDirFS = fmt.Sprintf("%#x", fs.Type)
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		fmt.Sscan(string(b), &env.LoadAvgAtStart)
	}
	return env, nil
}

// commit reads the checked-out commit from ../.git without running git; the
// driver's checkout is not a repository, and there it is "unknown".
func commit() string {
	git := filepath.Join("..", ".git")
	head, err := os.ReadFile(filepath.Join(git, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(git, ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(git, "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, ok := strings.CutSuffix(line, " "+ref); ok {
			return hash
		}
	}
	return "unknown"
}

// summary is a metric over one run's repetitions.
type summary struct {
	Value float64 `json:"value"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

// result is one run of one workload.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Reps      int                `json:"reps"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	FailRatio float64            `json:"fail_ratio"`
	Metrics   map[string]summary `json:"metrics"`
	// NSPerEventDecile is the cost of an event in each tenth of the
	// measured phase. sim_vector has only the first tenth, run on its own,
	// and the whole run.
	NSPerEventDecile []float64 `json:"ns_per_event_decile"`
	// Detail is the last repetition's: the figures behind its metrics.
	Detail map[string]any `json:"detail"`
}

// minReps is the fewest repetitions a run makes.
const minReps = 3

// ofMedian names the metrics a run reports the median repetition of: what is
// not a timing, and set-up, as the driver's contract asks. Every other
// metric is a timing. On a shared box a neighbour only ever slows a
// repetition down, for seconds at a time, so the median repetition moves
// with the neighbour's load while the fast ones repeat; and the single
// fastest is at times a fluke. So a timing is reported from the repetition
// a quarter of the way from the best to the worst.
var ofMedian = map[string]bool{"setup_s": true, "heap_live_mb": true, "usage_ratio": true}

// goodQuartile returns the value a quarter of the way from the best of v to
// the worst.
func goodQuartile(v []float64, better string) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if better == "higher" {
		slices.Reverse(s)
	}
	return s[(len(s)-1)/4]
}

// tenths folds the cost of an event in each slice of the measured phase into
// at most ten: a tenth is the mean of its ten hundredths.
func tenths(slices []float64) []float64 {
	d := make([]float64, min(len(slices), 10))
	for i, ns := range slices {
		d[i*len(d)/len(slices)] += ns * float64(len(d)) / float64(len(slices))
	}
	return d
}

func tailOverHead(tenths []float64) float64 { return tenths[len(tenths)-1] / tenths[0] }

// runWorkload repeats the workload over fresh state for the given seconds,
// and at least minReps times.
func runWorkload(s spec, w workloadDef, seed int64, seconds, scale float64) (result, error) {
	res := result{Workload: w.name, Seed: seed, Metrics: map[string]summary{}}
	values := map[string][]float64{}
	var perSlice [][]float64
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for res.Reps < minReps || time.Now().Before(deadline) {
		r, err := w.rep(seed, scale)
		if err != nil {
			return res, fmt.Errorf("%s: %w", w.name, err)
		}
		res.Reps++
		fmt.Fprintf(os.Stderr, "bench: %s rep %d: %.0f events/s\n", w.name, res.Reps, r.metrics["events_per_s"])
		res.Attempted += r.attempted
		res.Failed += r.failed
		res.Detail = r.detail
		for name, v := range r.metrics {
			values[name] = append(values[name], v)
		}
		if perSlice == nil {
			perSlice = make([][]float64, len(r.slices))
		}
		for i, ns := range r.slices {
			perSlice[i] = append(perSlice[i], ns)
		}
		values["tail_over_head"] = append(values["tail_over_head"], tailOverHead(tenths(r.slices)))
	}
	// Each slice of the measured phase is a timing of its own.
	composed := make([]float64, len(perSlice))
	for i, v := range perSlice {
		composed[i] = goodQuartile(v, "lower")
	}
	res.NSPerEventDecile = tenths(composed)
	for _, m := range s.EndToEnd {
		v := values[m.Name]
		if len(v) == 0 {
			return res, fmt.Errorf("%s does not measure %s", w.name, m.Name)
		}
		sum := summary{Min: slices.Min(v), Max: slices.Max(v)}
		switch {
		case m.Name == "tail_over_head":
			sum.Value = tailOverHead(res.NSPerEventDecile)
		case ofMedian[m.Name]:
			sum.Value = median(v)
		default:
			sum.Value = goodQuartile(v, m.Better)
		}
		if math.IsNaN(sum.Value) || math.IsInf(sum.Value, 0) {
			fmt.Fprintf(os.Stderr, "bench: %s: %s is %v\n", w.name, m.Name, sum.Value)
			res.Failed++
		}
		res.Metrics[m.Name] = sum
	}
	res.Correct = res.Failed == 0
	res.FailRatio = float64(res.Failed) / float64(res.Attempted)
	return res, nil
}

// printResult prints every metric of a run by name and unit.
func printResult(s spec, r result) {
	fmt.Printf("%s  seed %d  %d reps  attempted %d  failed %d  fail_ratio %g\n",
		r.Workload, r.Seed, r.Reps, r.Attempted, r.Failed, r.FailRatio)
	for _, m := range s.EndToEnd {
		v := r.Metrics[m.Name]
		fmt.Printf("  %-16s %14.4f %-6s (min %.4f, max %.4f; %s is better)\n", m.Name, v.Value, m.Unit, v.Min, v.Max, m.Better)
	}
	fmt.Printf("  ns_per_event_decile %.0f\n", r.NSPerEventDecile)
	if v, ok := r.Detail["disk_bytes"]; ok {
		fmt.Printf("  disk_bytes %v\n", v)
	}
}

// driverLine prints the one JSON object the driver reads from the last line.
func driverLine(correct bool, attempted, failed int64, specs []metricSpec, value func(name string) float64) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, attempted, failed, map[string]metric{}}
	for _, m := range specs {
		out.Metrics[m.Name] = metric{value(m.Name), m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

// report is what a run of whole sets writes to out/report.json.
type report struct {
	Environment environment `json:"environment"`
	Seconds     float64     `json:"seconds"`
	Sets        [][]result  `json:"sets"`
	// Spread is, per workload and metric, the relative difference between
	// the first two sets, beside the metric's bound.
	Spread []spread `json:"spread,omitempty"`
}

type spread struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	First    float64 `json:"first"`
	Second   float64 `json:"second"`
	RelDiff  float64 `json:"rel_diff"`
	Bound    float64 `json:"bound"`
	Within   bool    `json:"within"`
}

// compareSets sets the first two sets side by side. The usage ratio of a
// workload whose schedule is the script's own must repeat exactly.
func compareSets(s spec, a, b []result) []spread {
	var out []spread
	for i := range a {
		for _, m := range s.EndToEnd {
			x, y := a[i].Metrics[m.Name].Value, b[i].Metrics[m.Name].Value
			sp := spread{Workload: a[i].Workload, Metric: m.Name, First: x, Second: y,
				RelDiff: math.Abs(y-x) / math.Abs(x), Bound: m.Bound}
			sp.Within = sp.RelDiff <= m.Bound
			if m.Name == "usage_ratio" && a[i].Workload != "serve_wire" {
				sp.Within = x == y
			}
			out = append(out, sp)
		}
	}
	return out
}

func writeJSON(name string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, name), append(b, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func main() {
	name := flag.String("workload", "", "run this workload alone and end with the driver's JSON line; all four when empty")
	seed := flag.Int64("seed", 1, "seed of the generated scripts")
	seconds := flag.Float64("seconds", 0, "seconds each workload repeats for (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1 runs the layer ladder with spans and reports the per-layer metrics")
	sets := flag.Int("sets", 1, "run the workloads this many times; with 2 or more, compare the first two sets against the bounds")
	flag.Parse()

	s, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	env, err := stampEnvironment()
	if err != nil {
		fatal(err)
	}
	if *seconds == 0 {
		*seconds = float64(s.RunSeconds)
	}

	fmt.Printf("environment: %+v\n", env)

	if *trace == 1 {
		l, err := runLadder(*seed, 1)
		if err != nil {
			fatal(err)
		}
		if err := l.writeTrace(env); err != nil {
			fatal(err)
		}
		err = writeJSON("ladder.json", struct {
			Environment environment        `json:"environment"`
			Metrics     map[string]float64 `json:"metrics"`
		}{env, l.metrics})
		if err != nil {
			fatal(err)
		}
		for _, m := range s.PerLayer {
			fmt.Printf("  %-28s %14.4f %-6s\n", m.Name, l.metrics[m.Name], m.Unit)
		}
		fmt.Printf("  self times sum to %.3f of wire.rtt_us; trace in %s\n", l.selfSumOverRTT(), filepath.Join(outDir, "trace.json"))
		driverLine(l.failed == 0, l.attempted, l.failed, s.PerLayer, func(n string) float64 { return l.metrics[n] })
		if l.failed != 0 {
			os.Exit(1)
		}
		return
	}

	selected := workloads
	if *name != "" {
		i := slices.IndexFunc(workloads, func(w workloadDef) bool { return w.name == *name })
		if i < 0 {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		selected = workloads[i : i+1]
	}
	rep := report{Environment: env, Seconds: *seconds}
	ok := true
	for range *sets {
		var set []result
		for _, w := range selected {
			r, err := runWorkload(s, w, *seed, *seconds, 1)
			if err != nil {
				fatal(err)
			}
			printResult(s, r)
			ok = ok && r.Correct
			set = append(set, r)
		}
		rep.Sets = append(rep.Sets, set)
	}
	if *sets >= 2 {
		rep.Spread = compareSets(s, rep.Sets[0], rep.Sets[1])
		fmt.Println("set 1 against set 2:")
		for _, sp := range rep.Spread {
			mark := ""
			if !sp.Within {
				mark, ok = "  EXCEEDS", false
			}
			fmt.Printf("  %-14s %-16s %14.4f %14.4f  diff %7.3f%%  bound %5.1f%%%s\n",
				sp.Workload, sp.Metric, sp.First, sp.Second, 100*sp.RelDiff, 100*sp.Bound, mark)
		}
	}
	if err := writeJSON("report.json", rep); err != nil {
		fatal(err)
	}
	if *name != "" {
		r := rep.Sets[len(rep.Sets)-1][0]
		driverLine(r.Correct, r.Attempted, r.Failed, s.EndToEnd, func(n string) float64 { return r.Metrics[n].Value })
	}
	if !ok {
		os.Exit(1)
	}
}
