package analysis

import (
	"math"
	"math/rand"
	"testing"

	"dbp/internal/item"
	"dbp/internal/opt"
	"dbp/internal/packing"
	"dbp/internal/workload"
)

// Theorem 1 (the paper's main result): FF_total(R) <= (mu+4) * OPT_total(R).
// This is the repository's most important property test: it checks the
// bound against the exact offline optimum on hundreds of instances across
// regimes (random mixes, small items, adversarial constructions).
func TestTheorem1BoundOnRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(2016))
	for trial := 0; trial < 60; trial++ {
		mu := 1 + rng.Float64()*10
		var l item.List
		switch trial % 3 {
		case 0:
			l = smallItemInstance(rng, 80, 10, mu)
		case 1:
			l = workload.Generate(workload.UniformConfig(80, 2, mu, rng.Int63()))
		default:
			l = workload.Generate(workload.SmallItemConfig(80, 3, mu, rng.Int63()))
		}
		checkTheorem1(t, l)
	}
}

func TestTheorem1BoundOnAdversarialInstances(t *testing.T) {
	for _, l := range []item.List{
		workload.NextFitAdversary(12, 6),
		workload.AnyFitTrap(12, 6),
		workload.FirstFitSmallItemStress(8, 5, 4),
		workload.AnyFitTrap(40, 16),
	} {
		checkTheorem1(t, l)
	}
}

func checkTheorem1(t *testing.T, l item.List) {
	t.Helper()
	res := packing.MustRun(packing.NewFirstFit(), l, nil)
	// FF <= (mu+4)*OPT <= (mu+4)*Upper; Upper is OPT_total itself when
	// every segment's search completes.
	optTotal := opt.Total(l, math.MaxInt).Upper
	mu := l.Mu()
	bound := FirstFitUpperBound(mu) * optTotal
	if res.TotalUsage > bound+1e-6 {
		t.Fatalf("THEOREM 1 VIOLATED: FF = %g > (mu+4)*OPT = %g (mu = %g, n = %d)",
			res.TotalUsage, bound, mu, len(l))
	}
}

// The universal lower bound mu: the trap family's measured FF ratio must
// stay within [something approaching mu, mu+4].
func TestFirstFitRatioBetweenBounds(t *testing.T) {
	for _, mu := range []float64{2, 4, 8} {
		l := workload.AnyFitTrap(100, mu)
		res := packing.MustRun(packing.NewFirstFit(), l, nil)
		r := Ratio{Algorithm: res.Algorithm, Mu: l.Mu(), Usage: res.TotalUsage, Opt: opt.Total(l, 1)}
		// Conservative ratio must not exceed Theorem 1's bound.
		if r.Hi() > FirstFitUpperBound(mu)+1e-6 {
			t.Fatalf("mu=%g: measured ratio upper estimate %g exceeds mu+4", mu, r.Hi())
		}
		// And the optimistic estimate should be near mu on the trap.
		if r.Lo() < mu*0.8 {
			t.Fatalf("mu=%g: trap only achieved ratio %g", mu, r.Lo())
		}
	}
}

func TestMeasureReturnsSaneBracket(t *testing.T) {
	l := workload.Generate(workload.UniformConfig(60, 2, 4, 5))
	r, res, err := Measure(packing.NewFirstFit(), l)
	if err != nil {
		t.Fatal(err)
	}
	if r.Usage != res.TotalUsage {
		t.Fatal("usage mismatch")
	}
	if r.Lo() > r.Hi() {
		t.Fatalf("ratio bracket inverted: [%g, %g]", r.Lo(), r.Hi())
	}
	if r.Lo() < 1-1e-9 && r.Opt.Exact {
		t.Fatalf("exact ratio below 1: %g", r.Lo())
	}
	if r.String() == "" {
		t.Fatal("empty String")
	}
}

func TestMeasureVectorInstance(t *testing.T) {
	l := workload.GenerateVec(workload.UniformConfig(40, 2, 4, 5), 2)
	r, _, err := Measure(packing.NewFirstFit(), l)
	if err != nil {
		t.Fatal(err)
	}
	if r.Hi() < 1-1e-9 {
		t.Fatalf("vector ratio upper estimate %g below 1", r.Hi())
	}
}

func TestBoundFunctions(t *testing.T) {
	mu := 6.0
	if FirstFitUpperBound(mu) != 10 {
		t.Error("Theorem 1 bound wrong")
	}
	if FirstFitUpperBoundOld(mu) != 19 {
		t.Error("old FF bound wrong")
	}
	if NextFitUpperBound(mu) != 13 || NextFitLowerBound(mu) != 12 {
		t.Error("NF bounds wrong")
	}
	if AnyOnlineLowerBound(mu) != 6 || AnyFitLowerBound(mu) != 7 {
		t.Error("lower bounds wrong")
	}
	if FirstFitUpperBound(mu)-AnyOnlineLowerBound(mu) != 4 {
		t.Error("Theorem 1 gap must be the constant 4")
	}
	// The new bound beats the old one for every mu >= 0.
	for _, m := range []float64{1, 2, 4, 8, 32} {
		if FirstFitUpperBound(m) >= FirstFitUpperBoundOld(m) {
			t.Errorf("mu=%g: new bound not better than old", m)
		}
		if HybridFirstFitUpperBound(m) >= FirstFitUpperBound(m)+4 {
			t.Errorf("mu=%g: HFF bound sanity", m)
		}
	}
}
