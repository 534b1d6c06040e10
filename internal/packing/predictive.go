package packing

import (
	"fmt"
	"math"
	"math/rand"

	"dbp/internal/bins"
)

// predictiveFit is a learning-augmented baseline: it applies the
// clairvoyant NoExtendFit rule to a *noisy prediction* of each item's
// departure — the true departure multiplied by a lognormal factor
// exp(sigma * N(0,1)). sigma = 0 is full clairvoyance, and is NoExtendFit
// itself; large sigma decays toward uninformed placement. It interpolates
// between the paper's online model (departures unknown) and interval
// scheduling (departures known), quantifying how accurate a duration
// predictor must be before it beats plain First Fit (experiment E13d).
//
// Runs require Options.Clairvoyant (the simulator supplies the true
// departure; the policy perturbs it deterministically per item and seed,
// so the policy itself never acts on exact information when sigma > 0).
// Horizon-driven, it scans the open list (linear path).
type predictiveFit struct {
	name  string
	sigma float64
	seed  int64
}

// newNoExtendFit returns NoExtendFit, the stricter clairvoyant rule: an
// item only joins a bin if it would NOT extend the bin's closing horizon
// (departure <= current horizon), preferring the fullest such bin; if no
// bin can absorb the item for free, it prefers First Fit among the rest.
// Joining a bin without extending its horizon adds zero usage time, so
// every such placement is individually optimal. It is PredictiveFit at
// sigma = 0, where the prediction is the true departure, and requires a
// clairvoyant run.
func newNoExtendFit() *predictiveFit { return &predictiveFit{name: "NoExtendFit(clairvoyant)"} }

// NewPredictiveFit returns a predictive policy with lognormal prediction
// noise sigma (>= 0) and a seed for the deterministic noise stream.
func NewPredictiveFit(sigma float64, seed int64) Algorithm {
	if sigma < 0 {
		panic("packing: negative prediction noise")
	}
	return &predictiveFit{name: fmt.Sprintf("PredictiveFit(sigma=%g)", sigma), sigma: sigma, seed: seed}
}

// Name implements Algorithm.
func (p *predictiveFit) Name() string { return p.name }

// Place implements Algorithm: the fullest fitting bin whose horizon the
// predicted departure does not extend, else the first fitting bin. It
// panics if the run is not clairvoyant (misconfiguration, not data).
func (p *predictiveFit) Place(a Arrival, f Fleet) *bins.Bin {
	if math.IsNaN(a.Departure) {
		panic(fmt.Sprintf("packing: %s requires Options.Clairvoyant (item %d)", p.name, a.ID))
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
func (p *predictiveFit) predict(a Arrival) float64 {
	if p.sigma == 0 {
		return a.Departure
	}
	rng := rand.New(rand.NewSource(p.seed ^ int64(a.ID)*-0x61c8864680b583eb))
	dur := a.Departure - a.At
	return a.At + dur*math.Exp(p.sigma*rng.NormFloat64())
}
