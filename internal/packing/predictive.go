package packing

import (
	"fmt"
	"math"
	"math/rand"

	"dbp/internal/bins"
)

// PredictiveFit is a learning-augmented baseline: it behaves like the
// clairvoyant NoExtendFit, but sees only a *noisy prediction* of each
// item's departure — the true departure multiplied by a lognormal factor
// exp(sigma * N(0,1)). sigma = 0 is full clairvoyance; large sigma decays
// toward uninformed placement. It interpolates between the paper's
// online model (departures unknown) and interval scheduling (departures
// known), quantifying how accurate a duration predictor must be before
// it beats plain First Fit (experiment E13d).
//
// Runs require Options.Clairvoyant (the simulator supplies the true
// departure; the policy perturbs it deterministically per item and seed,
// so the policy itself never acts on exact information when sigma > 0).
// Horizon-driven like NoExtendFit, it scans the open list (linear path).
type PredictiveFit struct {
	sigma float64
	seed  int64
}

// NewPredictiveFit returns a predictive policy with lognormal prediction
// noise sigma (>= 0) and a seed for the deterministic noise stream.
func NewPredictiveFit(sigma float64, seed int64) *PredictiveFit {
	if sigma < 0 {
		panic("packing: negative prediction noise")
	}
	return &PredictiveFit{sigma: sigma, seed: seed}
}

// Name implements Algorithm.
func (p *PredictiveFit) Name() string {
	return fmt.Sprintf("PredictiveFit(sigma=%g)", p.sigma)
}

// Place implements Algorithm: NoExtendFit's rule driven by the predicted
// departure.
func (p *PredictiveFit) Place(a Arrival, f Fleet) *bins.Bin {
	if math.IsNaN(a.Departure) {
		panic(fmt.Sprintf("packing: PredictiveFit requires Options.Clairvoyant (item %d)", a.ID))
	}
	pred := p.predict(a)
	open := f.Open()
	var free *bins.Bin
	for _, b := range open {
		if !b.FitsDemand(a.Sizes) || pred > horizon(b) {
			continue
		}
		if free == nil || b.Level() > free.Level()+bins.Eps {
			free = b
		}
	}
	if free != nil {
		return free
	}
	for _, b := range open {
		if b.FitsDemand(a.Sizes) {
			return b
		}
	}
	return nil
}

// predict perturbs the item's true remaining duration with per-item
// deterministic lognormal noise: the same item always gets the same
// prediction under the same seed, so runs are reproducible.
func (p *PredictiveFit) predict(a Arrival) float64 {
	if p.sigma == 0 {
		return a.Departure
	}
	rng := rand.New(rand.NewSource(p.seed ^ int64(a.ID)*-0x61c8864680b583eb))
	dur := a.Departure - a.At
	return a.At + dur*math.Exp(p.sigma*rng.NormFloat64())
}

// BinOpened implements Algorithm; PredictiveFit tracks no bin state.
func (*PredictiveFit) BinOpened(*bins.Bin) {}

// Reset implements Algorithm; the noise stream is keyed per item, so
// there is no run state to clear.
func (*PredictiveFit) Reset() {}
