package packing

import (
	"math/rand"
	"slices"
	"testing"

	"dbp/internal/item"
)

func TestPredictiveFitZeroNoiseEqualsNoExtendFit(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	for trial := 0; trial < 8; trial++ {
		l := randomInstance(rng, 150, 10)
		exact := MustRun(newNoExtendFit(), l, nil)
		pred := MustRun(NewPredictiveFit(0, 1), l, nil)
		if exact.TotalUsage != pred.TotalUsage {
			t.Fatalf("sigma=0 must reproduce NoExtendFit: %g vs %g", pred.TotalUsage, exact.TotalUsage)
		}
		if !slices.Equal(exact.Server, pred.Server) {
			t.Fatal("assignments differ at sigma=0")
		}
	}
}

func TestPredictiveFitDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	l := randomInstance(rng, 100, 8)
	a := MustRun(NewPredictiveFit(0.5, 7), l, nil)
	b := MustRun(NewPredictiveFit(0.5, 7), l, nil)
	if a.TotalUsage != b.TotalUsage {
		t.Fatal("same sigma+seed must reproduce")
	}
	c := MustRun(NewPredictiveFit(0.5, 8), l, nil)
	_ = c // different seed may or may not differ; just must be valid
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestPredictiveFitRequiresClairvoyance pins that a stream refuses
// Predictive Fit and No-Extend Fit (Predictive Fit at sigma 0) at
// construction, as it refuses Align Fit.
func TestPredictiveFitRequiresClairvoyance(t *testing.T) {
	checkStreamRefuses(t, NewPredictiveFit(0.1, 1))
	checkStreamRefuses(t, newNoExtendFit())
}

func TestPredictiveFitPanicsOnNegativeSigma(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPredictiveFit(-1, 0)
}

// Prediction quality should matter: perfect predictions should (weakly)
// beat heavily-noised ones on average over a bimodal workload.
func TestPredictionQualityMatters(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	var perfect, noisy float64
	for trial := 0; trial < 10; trial++ {
		var l item.List
		for i := 0; i < 150; i++ {
			a := rng.Float64() * 20
			dur := 1.0
			if rng.Float64() < 0.3 {
				dur = 10
			}
			l = append(l, mk(item.ID(i+1), 0.05+rng.Float64()*0.45, a, a+dur))
		}
		perfect += MustRun(NewPredictiveFit(0, 1), l, nil).TotalUsage
		noisy += MustRun(NewPredictiveFit(3, 1), l, nil).TotalUsage
	}
	if perfect > noisy*1.02 {
		t.Fatalf("perfect predictions (%g) clearly worse than sigma=3 noise (%g)?", perfect, noisy)
	}
}
