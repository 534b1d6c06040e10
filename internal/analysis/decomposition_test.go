package analysis

import (
	"math"
	"math/rand"
	"testing"

	"dbp/internal/item"
	"dbp/internal/packing"
	"dbp/internal/workload"
)

func mk(id item.ID, size, a, d float64) item.Item {
	return item.Item{ID: id, Size: size, Arrival: a, Departure: d}
}

func randomInstance(rng *rand.Rand, n int, horizon float64) item.List {
	l := make(item.List, n)
	for i := range l {
		a := rng.Float64() * horizon
		l[i] = mk(item.ID(i+1), 0.05+rng.Float64()*0.95, a, a+0.5+rng.Float64()*2)
	}
	return l
}

func TestDecomposeHandExample(t *testing.T) {
	// Figure 2 style: bin0 [0,4); bin1 [1,3); bin2 [2,6); bin3 [5,7).
	// E: bin0 -> 0; bin1 -> 4; bin2 -> 4; bin3 -> 6.
	// V: bin0 empty; bin1 [1,3) all; bin2 [2,4); bin3 [5,6).
	// W: bin0 [0,4); bin1 empty; bin2 [4,6); bin3 [6,7).
	l := item.List{
		mk(1, 0.9, 0, 4),
		mk(2, 0.9, 1, 3),
		mk(3, 0.9, 2, 6),
		mk(4, 0.9, 5, 7),
	}
	res := packing.MustRun(packing.NewFirstFit(), l, nil)
	if res.NumBins() != 4 {
		t.Fatalf("bins = %d, want 4", res.NumBins())
	}
	d := Decompose(res)
	wantE := []float64{0, 4, 4, 6}
	wantV := []float64{0, 2, 2, 1}
	wantW := []float64{4, 0, 2, 1}
	for k, p := range d.Periods {
		if p.E != wantE[k] {
			t.Errorf("E_%d = %g, want %g", k, p.E, wantE[k])
		}
		if math.Abs(p.V.Length()-wantV[k]) > 1e-12 {
			t.Errorf("|V_%d| = %g, want %g", k, p.V.Length(), wantV[k])
		}
		if math.Abs(p.W.Length()-wantW[k]) > 1e-12 {
			t.Errorf("|W_%d| = %g, want %g", k, p.W.Length(), wantW[k])
		}
	}
	if err := d.Verify(); err != nil {
		t.Fatal(err)
	}
	if got := d.SumW(); got != l.Span() {
		t.Errorf("sum W = %g, span = %g", got, l.Span())
	}
	if got := d.SumV() + l.Span(); math.Abs(got-res.TotalUsage) > 1e-12 {
		t.Errorf("eq (1) broken: %g vs %g", got, res.TotalUsage)
	}
}

// Section IV is algorithm-independent: the identities hold for every
// policy's packing.
func TestDecomposeIdentitiesAllPolicies(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 12; trial++ {
		l := randomInstance(rng, 150, 10)
		for name, algo := range packing.Standard() {
			res, err := packing.Run(algo, l, nil)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := Decompose(res).Verify(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

func TestDecomposeAdversarialInstances(t *testing.T) {
	instances := []item.List{
		workload.NextFitAdversary(8, 4),
		workload.AnyFitTrap(8, 4),
		workload.FirstFitSmallItemStress(6, 4, 3),
		workload.BestFitRelay(4, 3, 4),
	}
	for i, l := range instances {
		for _, algo := range []packing.Algorithm{packing.NewFirstFit(), packing.NewNextFit(), packing.NewBestFit()} {
			res := packing.MustRun(algo, l, nil)
			if err := Decompose(res).Verify(); err != nil {
				t.Fatalf("instance %d, %s: %v", i, algo.Name(), err)
			}
		}
	}
}

func TestDecomposeSingleBin(t *testing.T) {
	l := item.List{mk(1, 0.5, 0, 5)}
	res := packing.MustRun(packing.NewFirstFit(), l, nil)
	d := Decompose(res)
	if !d.Periods[0].V.Empty() {
		t.Error("single bin must have empty V (E_1 = U_1^-)")
	}
	if d.Periods[0].W.Length() != 5 {
		t.Error("single bin W must be its whole usage period")
	}
	if err := d.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestDecomposeEmptyRun(t *testing.T) {
	res := packing.MustRun(packing.NewFirstFit(), item.List{}, nil)
	d := Decompose(res)
	if len(d.Periods) != 0 {
		t.Fatal("no periods expected")
	}
	if err := d.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestDecomposeRejectsKeepAliveRuns(t *testing.T) {
	l := item.List{mk(1, 0.5, 0, 1)}
	res := packing.MustRun(packing.NewFirstFit(), l, &packing.Options{KeepAlive: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("Decompose must panic on keep-alive runs")
		}
	}()
	Decompose(res)
}

// SumW returns sum over bins of |W_k|.
func (d *Decomposition) SumW() float64 {
	var s float64
	for _, p := range d.Periods {
		s += p.W.Length()
	}
	return s
}
