package workload

import (
	"fmt"
	"math/rand"

	"dbp/internal/item"
)

// config describes a random workload: N jobs arriving by a Poisson process
// of rate Rate (exponential inter-arrival gaps), each with a duration and
// size drawn independently from the given distributions.
type config struct {
	N        int
	Rate     float64 // arrivals per unit time; > 0
	Size     dist
	Duration dist
	Seed     int64
}

// uniformConfig is the baseline workload of a request: uniform sizes on
// [0.05, 0.95] and uniform durations on [1, mu]. The other Poisson
// families change one of its two distributions.
func uniformConfig(req request) config {
	return config{
		N: req.N, Rate: req.Rate, Seed: req.Seed,
		Size:     uniformDist{Lo: 0.05, Hi: 0.95},
		Duration: uniformDist{Lo: 1, Hi: req.Mu},
	}
}

// generate is the one generator loop of the Poisson families: per job,
// the arrival gap, the duration, then the demand's d size draws (d <= 1
// is scalar). Items are emitted in arrival order with IDs 1..N. It panics
// on a non-positive N or Rate, which the scenario's hook refuses first.
func generate(c config, d int) item.List {
	if c.N <= 0 || c.Rate <= 0 {
		panic(fmt.Sprintf("workload: bad config %+v", c))
	}
	rng := rand.New(rand.NewSource(c.Seed))
	size := func() float64 { return clampSize(c.Size.Sample(rng)) }
	l := make(item.List, c.N)
	buf := demandBuf(c.N, d)
	t := 0.0
	for i := range l {
		t += rng.ExpFloat64() / c.Rate
		dur := c.Duration.Sample(rng)
		l[i] = item.Item{ID: item.ID(i + 1), Arrival: t, Departure: t + dur}
		drawDemand(&l[i], d, &buf, size)
	}
	return l
}

// demandBuf is the one array the demand vectors of n jobs share at
// d >= 2, not an allocation per job; nil at d <= 1.
func demandBuf(n, d int) []float64 {
	if d <= 1 {
		return nil
	}
	return make([]float64, n*d)
}

// drawDemand sets a job's demand from d calls to size: at d <= 1 the one
// draw is the scalar Size and Sizes stays nil; at d >= 2 the draws are
// the vector's components in order, in the next d elements of *buf
// (capped, so an append cannot reach the next job's), and Size is their
// maximum.
func drawDemand(it *item.Item, d int, buf *[]float64, size func() float64) {
	if d <= 1 {
		it.Size = size()
		return
	}
	it.Sizes, *buf = (*buf)[:d:d], (*buf)[d:]
	for k := range it.Sizes {
		it.Sizes[k] = size()
		it.Size = max(it.Size, it.Sizes[k])
	}
}

// clampSize forces a sampled size into the valid (0, 1] range; the
// distributions used by experiments are already in range, but defensive
// clamping keeps misconfigured sweeps from producing invalid instances.
func clampSize(s float64) float64 {
	if s <= 0 {
		return 1e-6
	}
	if s > 1 {
		return 1
	}
	return s
}

// burstyConfig extends config with a two-state Markov-modulated Poisson
// arrival process: the source alternates between a calm state (rate
// config.Rate) and a burst state (rate Config.Rate * BurstFactor), with
// exponential sojourn times. Flash crowds are the regime where online
// dispatching decisions compound — a burst fills servers whose stragglers
// then linger.
type burstyConfig struct {
	config
	// BurstFactor multiplies the arrival rate during bursts (> 1).
	BurstFactor float64
	// MeanCalm and MeanBurst are the expected sojourn times in each state.
	MeanCalm, MeanBurst float64
}

// generateBursty produces the MMPP instance described by the
// configuration. It panics on a configuration the bursty scenario's hook
// refuses first.
func generateBursty(c burstyConfig) item.List {
	if c.N <= 0 || c.Rate <= 0 || c.BurstFactor <= 1 || c.MeanCalm <= 0 || c.MeanBurst <= 0 {
		panic(fmt.Sprintf("workload: bad bursty config %+v", c))
	}
	rng := rand.New(rand.NewSource(c.Seed))
	l := make(item.List, c.N)
	t := 0.0
	inBurst := false
	stateEnd := rng.ExpFloat64() * c.MeanCalm
	for i := range l {
		rate := c.Rate
		if inBurst {
			rate *= c.BurstFactor
		}
		t += rng.ExpFloat64() / rate
		for t > stateEnd {
			inBurst = !inBurst
			if inBurst {
				stateEnd += rng.ExpFloat64() * c.MeanBurst
			} else {
				stateEnd += rng.ExpFloat64() * c.MeanCalm
			}
		}
		d := c.Duration.Sample(rng)
		l[i] = item.Item{ID: item.ID(i + 1), Size: clampSize(c.Size.Sample(rng)), Arrival: t, Departure: t + d}
	}
	return l
}
