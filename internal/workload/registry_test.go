package workload

// Registry-level tests live in an external package: they see the
// registry through its exported surface, as its consumers do.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dbp/internal/analysis"
	"dbp/internal/item"
	"dbp/internal/opt"
	"dbp/internal/packing"
	"dbp/internal/trace"
)

const sampleTrace = "testdata/sample.csv.gz"

// specFor turns a registered scenario into a runnable spec (the trace
// scenario needs a path).
func specFor(s Scenario) string {
	if s.Kind() == KindTrace {
		return "trace:" + sampleTrace
	}
	return s.Name()
}

// TestRegistrySmoke generates a small instance from EVERY registered
// scenario at defaults and validates it — the check a new family must
// pass by registration alone. It also pins the self-description
// contract: every name appears in the describe listing.
func TestRegistrySmoke(t *testing.T) {
	scens := Scenarios()
	if len(scens) < 14 {
		t.Fatalf("registry has %d scenarios, want >= 14 (families missing?)", len(scens))
	}
	listing := describe()
	for _, s := range scens {
		if s.Description() == "" {
			t.Errorf("%s: empty description", s.Name())
		}
		if !strings.Contains(listing, s.Name()) {
			t.Errorf("Describe() does not list %s", s.Name())
		}
		l, err := FromSpec(specFor(s), 60, 2, 8, 3, 1)
		if err != nil {
			t.Errorf("%s: %v", s.Name(), err)
			continue
		}
		if len(l) == 0 {
			t.Errorf("%s: empty instance", s.Name())
		}
		if err := l.Validate(); err != nil {
			t.Errorf("%s: invalid instance: %v", s.Name(), err)
		}
	}
}

// TestScenarioSeedDeterminism pins the reproducibility contract: the
// same (spec, seed) yields the identical instance, and for statistical
// scenarios a different seed yields a different one.
func TestScenarioSeedDeterminism(t *testing.T) {
	for _, s := range Scenarios() {
		spec := specFor(s)
		a, err := FromSpec(spec, 80, 2, 8, 42, 1)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		b, err := FromSpec(spec, 80, 2, 8, 42, 1)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed, different instances", s.Name())
		}
		if s.Kind() != kindStatistical {
			continue // adversaries and traces are seed-insensitive by design
		}
		c, err := FromSpec(spec, 80, 2, 8, 43, 1)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds, identical instances", s.Name())
		}
	}
}

// TestScalarOnlyScenarios pins the ErrScalarOnly contract sweeps rely
// on: scenarios without a vector form refuse Dim > 1 with the sentinel.
func TestScalarOnlyScenarios(t *testing.T) {
	if _, err := FromSpec("bursty", 40, 2, 8, 1, 2); !errors.Is(err, ErrScalarOnly) {
		t.Fatalf("bursty dim=2: got %v, want ErrScalarOnly", err)
	}
	if _, err := FromSpec("uniform", 40, 2, 8, 1, 2); err != nil {
		t.Fatalf("uniform dim=2: %v", err)
	}
}

// TestUnknownScenarioError pins the self-correcting error contract:
// unknown names, unknown params, ill-typed and malformed params all
// fail loudly, and the unknown-name error carries the whole registry.
func TestUnknownScenarioError(t *testing.T) {
	_, err := lookup("nope")
	if err == nil {
		t.Fatal("unknown scenario must error")
	}
	for _, want := range []string{"zipfian", "hotspot", "nextfit-adv", "trace"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unknown-name error does not enumerate %q: %v", want, err)
		}
	}
	for _, spec := range []string{"zipfian:bogus=1", "zipfian:alpha=abc", "zipfian:alpha", "uniform:x=1"} {
		if _, err := lookup(spec); err == nil {
			t.Errorf("Lookup(%q) must error", spec)
		}
	}
	// Params overlay defaults without mutating the registered schema.
	in := MustLookup("zipfian:alpha=1.9,classes=8")
	l, err := in.Generate(50, 2, 4, 1, 1)
	if err != nil || len(l) != 50 {
		t.Fatalf("parameterized zipfian: %v (%d items)", err, len(l))
	}
}

// TestTraceScenario replays the committed sample through the registry
// path and checks the error cases.
func TestTraceScenario(t *testing.T) {
	l, err := FromSpec("trace:"+sampleTrace, 0, 0, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(l) != 40 {
		t.Fatalf("sample trace: %d items, want 40", len(l))
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := FromSpec("trace", 0, 0, 0, 0, 1); err == nil {
		t.Fatal("trace without path must error")
	}
	if _, err := FromSpec("trace:/does/not/exist.csv", 0, 0, 0, 0, 1); err == nil {
		t.Fatal("trace with missing file must error")
	}
}

// TestZipfianRankFrequency checks the advertised skew: the empirical
// rank-frequency curve of the sampled size classes follows a power law
// with exponent ~ -alpha (log-log least-squares slope).
func TestZipfianRankFrequency(t *testing.T) {
	c := zipfianConfig{
		Config:  UniformConfig(20000, 5, 4, 2),
		Alpha:   1.1,
		Classes: 16,
		LoSize:  0.05, HiSize: 0.95,
	}
	l := generateZipfian(c, 1)
	counts := make([]int, c.Classes+1)
	for _, it := range l {
		r := c.RankOfSize(it.Size)
		if r < 1 || r > c.Classes {
			t.Fatalf("item size %g maps to rank %d outside [1, %d]", it.Size, r, c.Classes)
		}
		counts[r]++
	}
	// Least squares on (log r, log freq) over ranks with samples.
	var sx, sy, sxx, sxy float64
	n := 0.0
	for r := 1; r <= c.Classes; r++ {
		if counts[r] == 0 {
			continue
		}
		x, y := math.Log(float64(r)), math.Log(float64(counts[r]))
		sx, sy, sxx, sxy = sx+x, sy+y, sxx+x*x, sxy+x*y
		n++
	}
	slope := (n*sxy - sx*sy) / (n*sxx - sx*sx)
	if math.Abs(slope-(-c.Alpha)) > 0.15 {
		t.Fatalf("rank-frequency slope %.3f, want ~ %.3f (+-0.15)", slope, -c.Alpha)
	}
}

// TestHotspotTenantShare checks the tenant-affinity encoding and the
// advertised skew: the hot tenant set receives at least (roughly) the
// configured traffic share, recovered from the job IDs alone.
func TestHotspotTenantShare(t *testing.T) {
	c := hotspotConfig{
		Config:  UniformConfig(20000, 5, 4, 3),
		Tenants: 50, HotFrac: 0.1, HotShare: 0.8,
	}
	l := generateHotspot(c, 1)
	hot := c.HotTenants()
	if hot != 5 {
		t.Fatalf("HotTenants() = %d, want 5", hot)
	}
	hotJobs := 0
	for _, it := range l {
		tenant := int((int64(it.ID) - 1) % int64(c.Tenants))
		if tenant < 0 || tenant >= c.Tenants {
			t.Fatalf("job %d decodes to tenant %d outside [0, %d)", it.ID, tenant, c.Tenants)
		}
		if tenant < hot {
			hotJobs++
		}
	}
	share := float64(hotJobs) / float64(len(l))
	if share < 0.75 || share > 0.85 {
		t.Fatalf("hot tenant share %.3f, want ~0.8 (binomial noise band [0.75, 0.85])", share)
	}
}

// TestDiurnalPeakTrough checks the modulation actually lands in the
// arrival curve: with amplitude 0.8 the instantaneous rate ratio is 9x,
// so the quarter-cycle around the peak phase must see several times the
// arrivals of the quarter-cycle around the trough.
func TestDiurnalPeakTrough(t *testing.T) {
	c := diurnalConfig{
		Config:    UniformConfig(20000, 10, 4, 4),
		Amplitude: 0.8,
	}
	l := generateDiurnal(c, 1)
	period := c.EffectivePeriod()
	peak, trough := 0, 0
	for _, it := range l {
		phase := math.Mod(it.Arrival, period) / period
		switch {
		case phase >= 0.125 && phase < 0.375: // sin peak at phase 0.25
			peak++
		case phase >= 0.625 && phase < 0.875: // sin trough at phase 0.75
			trough++
		}
	}
	if trough == 0 || float64(peak)/float64(trough) < 3 {
		t.Fatalf("peak/trough arrivals %d/%d, want ratio >= 3 (theoretical 9x rate)", peak, trough)
	}
}

// TestEqualDurationBound checks the Masoori et al. regime: the
// equalduration scenario produces a unit-duration instance (mu = 1) and
// First Fit's measured conservative ratio stays under the equal-duration
// reference constant — far below Theorem 1's mu+4 = 5.
func TestEqualDurationBound(t *testing.T) {
	l, err := FromSpec("equalduration", 300, 3, 8, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range l {
		if d := it.Departure - it.Arrival; math.Abs(d-1) > 1e-12 {
			t.Fatalf("job %d duration %g, want exactly 1", it.ID, d)
		}
	}
	if mu := l.Mu(); math.Abs(mu-1) > 1e-9 {
		t.Fatalf("mu = %g, want 1", mu)
	}
	res := packing.MustRun(packing.NewFirstFit(), l, nil)
	b := opt.Total(l, opt.ExactLimit)
	ratio := res.TotalUsage / b.Lower
	if bound := analysis.EqualDurationFirstFitBound(); ratio > bound {
		t.Fatalf("FF conservative ratio %.4f exceeds equal-duration reference %.4g", ratio, bound)
	}
}

// TestVectorBracketAboveCombinedLowerBound holds the vector bracket's
// lower end to the propositions on every registered scenario at d = 2
// and d = 4: TotalVec's per-segment load bound integrates to at least
// each dimension's time-space demand and at least the span, so it can
// never fall below their max (which therefore must not exceed
// OPT_total either).
func TestVectorBracketAboveCombinedLowerBound(t *testing.T) {
	for _, s := range Scenarios() {
		for _, d := range []int{2, 4} {
			l, err := FromSpec(specFor(s), 60, 2, 8, 3, d)
			if errors.Is(err, ErrScalarOnly) {
				continue
			}
			if err != nil {
				t.Fatalf("%s d=%d: %v", s.Name(), d, err)
			}
			lower, lb := opt.TotalVec(l).Lower, math.Max(opt.DemandLowerBound(l), opt.SpanLowerBound(l))
			if lower < lb-1e-9*(1+lb) {
				t.Errorf("%s d=%d: TotalVec lower %g < combined lower bound %g", s.Name(), d, lower, lb)
			}
		}
	}
}

// digest hashes every field of every item bit for bit.
func digest(l item.List) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, it := range l {
		put(uint64(it.ID))
		put(math.Float64bits(it.Size))
		put(uint64(len(it.Sizes)))
		for _, s := range it.Sizes {
			put(math.Float64bits(s))
		}
		put(math.Float64bits(it.Arrival))
		put(math.Float64bits(it.Departure))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestStatisticalScenarioDigests pins every registered statistical
// scenario's output at d = 1 and d = 2 bit for bit, so a refactor of
// the generators cannot move a draw. A scalar-only scenario pins its
// refusal at d = 2.
func TestStatisticalScenarioDigests(t *testing.T) {
	want := map[string][2]string{
		"bimodal":       {"4b60facd396c3eb5", "90918a6ea1a4a0ca"},
		"bursty":        {"757e9f7045dcebb1", "scalar-only"},
		"diurnal":       {"7317e1f10752c7e0", "c79d3fff173c9ade"},
		"equalduration": {"02aa46630716f207", "527188f813ed3df0"},
		"gaming":        {"52c8236386db6d48", "scalar-only"},
		"hotspot":       {"41646fc21817d091", "c38f5aeeabfdb903"},
		"pareto":        {"48f880b236c04005", "28e9594706d3f7ee"},
		"smallitem":     {"c4f0f78205ff8b15", "52aa9f5a9690b027"},
		"uniform":       {"4f78b4614d6eee27", "22caade249e46089"},
		"zipfian":       {"3ffdf2b0e0aa3a77", "8771a21812ac499c"},
	}
	got := map[string][2]string{}
	for _, s := range Statistical() {
		var pair [2]string
		for i, d := range []int{1, 2} {
			l, err := FromSpec(s.Name(), 300, 2, 8, 11, d)
			switch {
			case errors.Is(err, ErrScalarOnly):
				pair[i] = "scalar-only"
			case err != nil:
				t.Fatalf("%s d=%d: %v", s.Name(), d, err)
			default:
				pair[i] = digest(l)
			}
		}
		got[s.Name()] = pair
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("statistical scenario digests moved:\n got %q\nwant %q", got, want)
	}
}

// TestTraceSpecIgnoresDim reads a 2-d trace through the registry at
// dim = 2: a trace's dimensionality is in the file, so the spec path
// returns exactly what trace.ReadFile does.
func TestTraceSpecIgnoresDim(t *testing.T) {
	p := filepath.Join(t.TempDir(), "vec.csv")
	l, err := FromSpec("uniform", 50, 2, 8, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteFile(p, l); err != nil {
		t.Fatal(err)
	}
	want, err := trace.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if d := want[0].Dim(); d != 2 {
		t.Fatalf("trace file read back at d=%d, want 2", d)
	}
	got, err := FromSpec("trace:"+p, 0, 0, 0, 0, 2)
	if err != nil {
		t.Fatalf("trace spec at dim=2: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("trace spec at dim=2 differs from trace.ReadFile")
	}
}
