package trace

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dbp/internal/item"
	"dbp/internal/packing"
)

// randomList builds a seeded random instance locally: this package
// cannot import internal/workload (workload's trace scenario imports
// this package), and the codec tests only need plausible float values.
func randomList(n int, seed int64, dim int) item.List {
	rng := rand.New(rand.NewSource(seed))
	l := make(item.List, n)
	t := 0.0
	for i := range l {
		t += rng.ExpFloat64() / 2
		it := item.Item{
			ID:      item.ID(i + 1),
			Arrival: t, Departure: t + 1 + 6*rng.Float64(),
			Size: 0.05 + 0.9*rng.Float64(),
		}
		if dim > 1 {
			it.Sizes = make([]float64, dim)
			maxc := 0.0
			for k := range it.Sizes {
				it.Sizes[k] = 0.05 + 0.9*rng.Float64()
				maxc = math.Max(maxc, it.Sizes[k])
			}
			it.Size = maxc
		}
		l[i] = it
	}
	return l
}

func roundTripCSV(t *testing.T, l item.List) item.List {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, l); err != nil {
		t.Fatal(err)
	}
	got, err := readCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func roundTripJSON(t *testing.T, l item.List) item.List {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, l); err != nil {
		t.Fatal(err)
	}
	got, err := readJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func equalLists(a, b item.List) bool {
	if len(a) != len(b) {
		return false
	}
	as, bs := a.SortedByArrival(), b.SortedByArrival()
	for i := range as {
		x, y := as[i], bs[i]
		if x.ID != y.ID || x.Size != y.Size || x.Arrival != y.Arrival || x.Departure != y.Departure {
			return false
		}
		if len(x.Sizes) != len(y.Sizes) {
			return false
		}
		for d := range x.Sizes {
			if x.Sizes[d] != y.Sizes[d] {
				return false
			}
		}
	}
	return true
}

func TestCSVRoundTripExact(t *testing.T) {
	l := randomList(200, 11, 1)
	if !equalLists(l, roundTripCSV(t, l)) {
		t.Fatal("CSV round trip not exact")
	}
}

func TestJSONRoundTripExact(t *testing.T) {
	l := randomList(200, 12, 1)
	if !equalLists(l, roundTripJSON(t, l)) {
		t.Fatal("JSON round trip not exact")
	}
}

func TestVectorRoundTrip(t *testing.T) {
	l := randomList(50, 2, 3)
	if !equalLists(l, roundTripCSV(t, l)) {
		t.Fatal("vector CSV round trip not exact")
	}
	if !equalLists(l, roundTripJSON(t, l)) {
		t.Fatal("vector JSON round trip not exact")
	}
}

// TestFileRoundTripGzip pins the transparent-compression contract of
// ReadFile/WriteFile: every extension combination — plain and gzipped
// CSV and JSON — round-trips exactly, including vector demands, and a
// .gz file is genuinely gzip on disk (magic bytes), not a renamed plain
// file.
func TestFileRoundTripGzip(t *testing.T) {
	dir := t.TempDir()
	l := randomList(80, 21, 2)
	for _, name := range []string{"t.csv", "t.json", "t.csv.gz", "t.json.gz"} {
		path := filepath.Join(dir, name)
		if err := WriteFile(path, l); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !equalLists(l, got) {
			t.Fatalf("%s: file round trip not exact", name)
		}
	}
	buf, err := os.ReadFile(filepath.Join(dir, "t.csv.gz"))
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) < 2 || buf[0] != 0x1f || buf[1] != 0x8b {
		t.Fatal("t.csv.gz is not gzip-compressed on disk")
	}
}

func TestReadFileErrors(t *testing.T) {
	if _, err := ReadFile("/does/not/exist.csv"); err == nil {
		t.Fatal("missing file must error")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.csv.gz")
	if err := os.WriteFile(bad, []byte("not gzip at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(bad); err == nil {
		t.Fatal("corrupt gzip must error")
	}
}

func TestCSVFullPrecision(t *testing.T) {
	l := item.List{{ID: 1, Size: 1.0 / 3.0, Arrival: math.Pi, Departure: math.Pi + math.E}}
	got := roundTripCSV(t, l)
	if got[0].Size != 1.0/3.0 || got[0].Arrival != math.Pi {
		t.Fatal("precision lost")
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",                                                  // empty
		"a,b,c,d\n1,0.5,0,1\n",                              // bad header
		"id,size,arrival,departure\nx,0.5,0,1\n",            // bad id
		"id,size,arrival,departure\n1,zap,0,1\n",            // bad float
		"id,size,arrival,departure\n1,0.5,5,1\n",            // invalid interval
		"id,size,arrival,departure\n1,1.5,0,1\n",            // oversize
		"id,size,arrival,departure\n1,0.5,0,1\n1,0.5,2,3\n", // dup id
	}
	for _, c := range cases {
		if _, err := readCSV(strings.NewReader(c)); err == nil {
			t.Errorf("input %q must fail", c)
		}
	}
}

func TestReadJSONErrors(t *testing.T) {
	if _, err := readJSON(strings.NewReader("{not json")); err == nil {
		t.Fatal("bad JSON must fail")
	}
	if _, err := readJSON(strings.NewReader(`[{"id":1,"size":2,"arrival":0,"departure":1}]`)); err == nil {
		t.Fatal("invalid item must fail")
	}
}

func TestWriteCSVSortsByArrival(t *testing.T) {
	l := item.List{
		{ID: 2, Size: 0.5, Arrival: 5, Departure: 6},
		{ID: 1, Size: 0.5, Arrival: 1, Departure: 2},
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, l); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if !strings.HasPrefix(lines[1], "1,") || !strings.HasPrefix(lines[2], "2,") {
		t.Fatalf("rows not sorted:\n%s", buf.String())
	}
}

func TestSummarize(t *testing.T) {
	l := item.List{
		{ID: 1, Size: 0.5, Arrival: 0, Departure: 2},
		{ID: 2, Size: 0.25, Arrival: 1, Departure: 5},
	}
	s := Summarize(l)
	if s.N != 2 || s.Mu != 2 || s.Span != 5 || s.MeanSize != 0.375 {
		t.Fatalf("stats = %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty String")
	}
	if z := Summarize(nil); z.N != 0 || z.MeanSize != 0 {
		t.Fatal("empty stats")
	}
}

// The demand a summary reports is Proposition 1's bound, per dimension at
// d >= 2: two jobs that peak in different dimensions share one server for
// 2 time units, so the demand is 2 (OPT is 2), not the 3.6 that summing
// each job's largest component gives.
func TestSummarizeDemandPerDimension(t *testing.T) {
	pair := item.List{
		{ID: 1, Size: 0.9, Sizes: []float64{0.9, 0.1}, Arrival: 0, Departure: 2},
		{ID: 2, Size: 0.9, Sizes: []float64{0.1, 0.9}, Arrival: 0, Departure: 2},
	}
	if got := Summarize(pair).Demand; got != 2 {
		t.Fatalf("Demand = %g, want 2", got)
	}
}

func TestWriteAssignment(t *testing.T) {
	l := item.List{
		{ID: 2, Size: 0.5, Arrival: 1, Departure: 2},
		{ID: 1, Size: 0.5, Arrival: 0, Departure: 3},
	}
	res := packing.MustRun(packing.NewFirstFit(), l, nil)
	var buf bytes.Buffer
	if err := WriteAssignment(&buf, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines: %v", lines)
	}
	if lines[0] != "id,bin,size,arrival,departure" {
		t.Fatalf("header: %s", lines[0])
	}
	if !strings.HasPrefix(lines[1], "1,0,") || !strings.HasPrefix(lines[2], "2,0,") {
		t.Fatalf("rows:\n%s", buf.String())
	}
}

func TestAssignmentRoundTrip(t *testing.T) {
	l := randomList(60, 3, 1)
	res := packing.MustRun(packing.NewFirstFit(), l, nil)
	var buf bytes.Buffer
	if err := WriteAssignment(&buf, res); err != nil {
		t.Fatal(err)
	}
	l2, assign, err := ReadAssignment(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(l2) != len(l) || len(assign) != len(l) {
		t.Fatal("assignment round trip lost rows")
	}
	rep, err := packing.Replay(l2, assign)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalUsage != res.TotalUsage {
		t.Fatalf("replayed usage %g != original %g", rep.TotalUsage, res.TotalUsage)
	}
}

func TestReadAssignmentErrors(t *testing.T) {
	cases := []string{
		"",
		"id,bin\n1,0\n",
		"id,bin,size,arrival,departure\nx,0,0.5,0,1\n",
		"id,bin,size,arrival,departure\n1,z,0.5,0,1\n",
		"id,bin,size,arrival,departure\n1,0,2.5,0,1\n",
	}
	for _, c := range cases {
		if _, _, err := ReadAssignment(strings.NewReader(c)); err == nil {
			t.Errorf("input %q must fail", c)
		}
	}
}
