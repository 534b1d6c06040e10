package dbp

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dbp/internal/analysis"
	"dbp/internal/packing"
	"dbp/internal/trace"
	"dbp/internal/workload"
)

func TestPublicAPIQuickstartFlow(t *testing.T) {
	jobs := GenerateUniform(100, 2.0, 8.0, 1)
	if err := jobs.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := Run(FirstFit(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	ratio, res2, err := MeasureRatio(FirstFit(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res2.TotalUsage != res.TotalUsage {
		t.Fatal("measure and run disagree")
	}
	if ratio.Hi() > Theorem1Bound(jobs.Mu()) {
		t.Fatalf("ratio %g above Theorem 1 bound", ratio.Hi())
	}
	if lo := ratio.Usage / ratio.Opt.Upper; lo < 1-1e-9 {
		t.Fatalf("ratio %g below 1", lo)
	}
}

func TestPublicAlgorithms(t *testing.T) {
	jobs := GenerateUniform(60, 2, 4, 2)
	algos := []Algorithm{
		FirstFit(), BestFit(), WorstFit(), NextFit(), HybridFirstFit(2),
	}
	for _, a := range algos {
		res, err := Run(a, jobs)
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		if err := res.Verify(); err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
	}
	if _, err := AlgorithmByName("firstfit"); err != nil {
		t.Fatal(err)
	}
	if len(AlgorithmNames()) < 8 {
		t.Fatal("missing registered algorithms")
	}
}

func TestPublicOptAndPropositions(t *testing.T) {
	jobs := GenerateUniform(50, 2, 4, 3)
	exact, ok := OptExact(jobs)
	if !ok {
		t.Skip("exact solve cut off")
	}
	if DemandLowerBound(jobs) > exact+1e-9 || SpanLowerBound(jobs) > exact+1e-9 {
		t.Fatal("propositions exceed OPT")
	}
	// Two jobs that peak in different dimensions share one server for 2
	// time units: OPT is 2, and Proposition 1 bounds it per dimension.
	pair := List{
		{ID: 1, Size: 0.9, Sizes: []float64{0.9, 0.1}, Arrival: 0, Departure: 2},
		{ID: 2, Size: 0.9, Sizes: []float64{0.1, 0.9}, Arrival: 0, Departure: 2},
	}
	if got := DemandLowerBound(pair); got != 2 {
		t.Fatalf("DemandLowerBound(pair) = %g, want 2 (OPT is 2)", got)
	}
}

func TestPublicBounds(t *testing.T) {
	if Theorem1Bound(6) != 10 || UniversalLowerBound(6) != 6 {
		t.Fatal("bounds wrong")
	}
}

func TestPublicAdversaries(t *testing.T) {
	nf := MustRun(NextFit(), NextFitAdversary(8, 4))
	if nf.TotalUsage != 32 {
		t.Fatalf("NF usage = %g, want 32", nf.TotalUsage)
	}
	ff := MustRun(FirstFit(), AnyFitTrap(8, 4))
	if math.Abs(ff.TotalUsage-32) > 1e-9 {
		t.Fatalf("FF trap usage = %g, want 32", ff.TotalUsage)
	}
}

func TestPublicDispatcher(t *testing.T) {
	d := NewDispatcher(FirstFit(), 0, 1)
	srv, opened, err := d.Arrive(1, 0.5, nil, 0)
	if err != nil || !opened || srv != 0 {
		t.Fatalf("arrive: %d %v %v", srv, opened, err)
	}
	if _, _, err := d.Depart(1, 2); err != nil {
		t.Fatal(err)
	}
	if d.AccumulatedUsage(2) != 2 {
		t.Fatal("usage wrong")
	}
}

// TestPublicTraceRoundTrip reads the root writers' output back with the
// trace package's reader, which the root API no longer re-exports.
func TestPublicTraceRoundTrip(t *testing.T) {
	jobs := GenerateGaming(100, 0.5, 4)
	dir := t.TempDir()
	for _, name := range []string{"jobs.csv", "jobs.json"} {
		var buf bytes.Buffer
		write := WriteTraceCSV
		if strings.HasSuffix(name, ".json") {
			write = WriteTraceJSON
		}
		if err := write(&buf, jobs); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		back, err := trace.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(back) != len(jobs) {
			t.Fatalf("%s: round trip lost items", name)
		}
	}
}

func TestPublicBilling(t *testing.T) {
	jobs := GenerateGaming(150, 0.5, 5)
	res := MustRun(FirstFit(), jobs)
	iv := CostOf(res, HourlyBilling(0.90, 60))
	if iv.Total <= 0 || iv.BilledTime < iv.UsageTime-1e-9 {
		t.Fatalf("invoice = %+v", iv)
	}
	cont := CostOf(res, BillingModel{Granularity: 0, Rate: 0.90 / 60})
	if cont.Total > iv.Total+1e-9 {
		t.Fatal("continuous billing cannot cost more than hourly")
	}
}

func TestPublicGamingWorkload(t *testing.T) {
	jobs := GenerateGaming(200, 1, 6)
	if len(jobs) != 200 {
		t.Fatal("wrong count")
	}
	if mu := jobs.Mu(); mu > 60+1e-9 {
		t.Fatalf("gaming mu %g exceeds catalog bound", mu)
	}
}

func TestPublicKeepAlive(t *testing.T) {
	jobs := List{
		{ID: 1, Size: 1, Arrival: 0, Departure: 10},
		{ID: 2, Size: 1, Arrival: 15, Departure: 25},
	}
	res, err := RunKeepAlive(FirstFit(), jobs, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumBins() != 1 {
		t.Fatalf("bins = %d, want 1 (reuse through keep-alive)", res.NumBins())
	}
	if _, err := RunKeepAlive(FirstFit(), jobs, -1); err == nil {
		t.Fatal("negative keep-alive must error")
	}
}

func TestPublicClairvoyant(t *testing.T) {
	jobs := GenerateUniform(80, 2, 6, 9)
	res, err := Run(PredictiveFit(0, 9), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestPublicNextKFitAndAWF runs policies the root API does not name
// through Run, from the packing package's constructor and registry.
func TestPublicNextKFitAndAWF(t *testing.T) {
	jobs := GenerateUniform(80, 2, 6, 9)
	awf, err := AlgorithmByName("almostworstfit")
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{packing.NewNextKFit(1), packing.NewNextKFit(4), awf} {
		res, err := Run(algo, jobs)
		if err != nil {
			t.Fatalf("%s: %v", algo.Name(), err)
		}
		if err := res.Verify(); err != nil {
			t.Fatalf("%s: %v", algo.Name(), err)
		}
	}
	nf := MustRun(NextFit(), jobs)
	nk1 := MustRun(packing.NewNextKFit(1), jobs)
	if nf.TotalUsage != nk1.TotalUsage {
		t.Fatal("NextKFit(1) must equal NextFit")
	}
}

func TestPublicFleet(t *testing.T) {
	jobs := GenerateGaming(120, 0.5, 3)
	fleet := []ServerType{
		{Name: "small", Capacity: 0.25},
		{Name: "large", Capacity: 1.0},
	}
	res, err := RunFleet(FirstFit(), jobs, fleet, RightSizeChooser())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	iv := CostOfFleet(res, RatePlan{Granularity: 60, Tiers: []TierRate{
		{Capacity: 0.25, Rate: 0.35 / 60},
		{Capacity: 1.0, Rate: 1.0 / 60},
	}})
	if iv.Total <= 0 {
		t.Fatalf("invoice = %+v", iv)
	}
	large, err := RunFleet(FirstFit(), jobs, fleet, LargestTypeChooser())
	if err != nil {
		t.Fatal(err)
	}
	if large.NumBins() > res.NumBins() {
		t.Fatal("always-large cannot open more servers than right-size")
	}
}

// TestPublicBursty packs a bursty workload generated with the parameters
// the removed root wrapper fixed (calm 30, burst 3).
func TestPublicBursty(t *testing.T) {
	jobs, err := workload.FromSpec("bursty:factor=10,calm=30,burst=3", 300, 1, 8, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := jobs.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(FirstFit(), jobs); err != nil {
		t.Fatal(err)
	}
}

// TestPublicDispatcherKeepAliveAndExports drives a keep-alive Dispatcher
// built by the packing package and checks the root exporter next to the
// analysis renderer the root API no longer re-exports.
func TestPublicDispatcherKeepAliveAndExports(t *testing.T) {
	var d *Dispatcher = packing.NewStreamKeepAlive(FirstFit(), 0, 1, 5)
	d.Arrive(1, 1.0, nil, 0)
	d.Depart(1, 2)
	if srv, opened, _ := d.Arrive(2, 1.0, nil, 4); opened || srv != 0 {
		t.Fatal("keep-alive dispatcher must reuse the lingering server")
	}
	d.Depart(2, 6)
	d.Shutdown()

	jobs := GenerateUniform(30, 2, 4, 8)
	res := MustRun(FirstFit(), jobs)
	var buf bytes.Buffer
	if err := WriteAssignment(&buf, res); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty assignment export")
	}
	if analysis.RenderTimeline(res, 60) == "" {
		t.Fatal("empty gantt")
	}
}

func TestPublicSnapshotAndErrorClasses(t *testing.T) {
	d := NewDispatcher(FirstFit(), 0, 1)
	d.Arrive(1, 0.5, nil, 0)
	if _, _, err := d.Arrive(1, 0.5, nil, 1); !errors.Is(err, ErrDuplicateJob) {
		t.Fatalf("duplicate arrive: got %v", err)
	}
	if _, _, err := d.Depart(9, 1); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("ghost depart: got %v", err)
	}
	if _, _, err := d.Arrive(2, 1.5, nil, 1); !errors.Is(err, ErrBadDemand) {
		t.Fatalf("oversized arrive: got %v", err)
	}
	if _, _, err := d.Arrive(2, 0.5, nil, 0.5); !errors.Is(err, ErrTimeRegression) {
		t.Fatalf("regressed arrive: got %v", err)
	}
	snap := d.Snapshot()
	if snap.OpenServers != 1 || len(snap.Servers) != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	st := snap.Servers[0]
	if st.Index != 0 || st.Level != 0.5 || st.Jobs != 1 {
		t.Fatalf("server state = %+v", st)
	}
	if d.UsageTime() != snap.UsageTime {
		t.Fatal("UsageTime accessor disagrees with snapshot")
	}
}

// TestAlgorithmByNameRefusesClairvoyant pins what PredictiveFit's doc
// says: the clairvoyant baselines are not reachable by name, so a live
// stream (dbpserved -algo) cannot be given a policy that needs departure
// times it does not have.
func TestAlgorithmByNameRefusesClairvoyant(t *testing.T) {
	for _, name := range []string{"alignfit", "noextendfit"} {
		if algo, err := AlgorithmByName(name); err == nil || !strings.Contains(err.Error(), "unknown algorithm") {
			t.Errorf("AlgorithmByName(%q) = %v, %v; want an unknown algorithm error", name, algo, err)
		}
	}
}
