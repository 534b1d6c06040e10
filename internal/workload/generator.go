package workload

import (
	"fmt"
	"math/rand"

	"dbp/internal/item"
)

// Config describes a random workload: N jobs arriving by a Poisson process
// of rate Rate (exponential inter-arrival gaps), each with a duration and
// size drawn independently from the given distributions.
type Config struct {
	N        int
	Rate     float64 // arrivals per unit time; must be > 0
	Size     Dist
	Duration Dist
	Seed     int64
}

// MuBound returns the a-priori duration ratio implied by the duration
// distribution's support — an upper bound on the realized mu of any
// generated instance.
func (c Config) MuBound() float64 {
	lo, hi := c.Duration.Bounds()
	return hi / lo
}

// String summarizes the configuration for experiment tables.
func (c Config) String() string {
	return fmt.Sprintf("n=%d rate=%g size=%v dur=%v seed=%d", c.N, c.Rate, c.Size, c.Duration, c.Seed)
}

// Generate produces the instance described by the configuration. Items
// are emitted in arrival order with IDs 1..N. It panics on non-positive N
// or Rate (caller bug, not data).
func Generate(c Config) item.List { return generate(c, 1) }

// GenerateVec produces a d-dimensional instance: each job's demand vector
// has independent components from Size, with the scalar Size field set to
// the maximum component (the convention of item.Item). Used by the
// multi-dimensional extension experiment (E10).
func GenerateVec(c Config, d int) item.List {
	if d < 2 {
		panic("workload: GenerateVec needs d >= 2")
	}
	return generate(c, d)
}

// generate is Generate's and GenerateVec's loop: per job, the arrival
// gap, the duration, then the demand's d size draws.
func generate(c Config, d int) item.List {
	if c.N <= 0 || c.Rate <= 0 {
		panic(fmt.Sprintf("workload: bad config %v", c))
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

// Presets for experiment sweeps: each returns a Config with the given
// load characteristics. Durations are pinned to [1, mu] so the realized
// duration ratio matches the experiment's x-axis.

// UniformConfig is the baseline workload: uniform sizes and uniform
// durations on [1, mu].
func UniformConfig(n int, rate, mu float64, seed int64) Config {
	return Config{
		N: n, Rate: rate, Seed: seed,
		Size:     uniformDist{Lo: 0.05, Hi: 0.95},
		Duration: uniformDist{Lo: 1, Hi: mu},
	}
}

// paretoConfig models heavy-tailed session lengths on [1, mu].
func paretoConfig(n int, rate, mu float64, seed int64) Config {
	return Config{
		N: n, Rate: rate, Seed: seed,
		Size:     uniformDist{Lo: 0.05, Hi: 0.95},
		Duration: paretoDist{Alpha: 1.2, Lo: 1, Hi: mu},
	}
}

// BimodalConfig models a short/long job mix: 80% duration-1 jobs, 20%
// duration-mu jobs.
func BimodalConfig(n int, rate, mu float64, seed int64) Config {
	return Config{
		N: n, Rate: rate, Seed: seed,
		Size:     uniformDist{Lo: 0.05, Hi: 0.95},
		Duration: bimodalDist{A: constantDist{V: 1}, B: constantDist{V: mu}, PA: 0.8},
	}
}

// SmallItemConfig keeps all sizes at or below 1/2 (the paper's "small"
// class), the regime where First Fit consolidates aggressively.
func SmallItemConfig(n int, rate, mu float64, seed int64) Config {
	return Config{
		N: n, Rate: rate, Seed: seed,
		Size:     uniformDist{Lo: 0.05, Hi: 0.5},
		Duration: uniformDist{Lo: 1, Hi: mu},
	}
}

// BurstyConfig extends Config with a two-state Markov-modulated Poisson
// arrival process: the source alternates between a calm state (rate
// Config.Rate) and a burst state (rate Config.Rate * BurstFactor), with
// exponential sojourn times. Flash crowds are the regime where online
// dispatching decisions compound — a burst fills servers whose stragglers
// then linger.
type BurstyConfig struct {
	Config
	// BurstFactor multiplies the arrival rate during bursts (> 1).
	BurstFactor float64
	// MeanCalm and MeanBurst are the expected sojourn times in each state.
	MeanCalm, MeanBurst float64
}

// GenerateBursty produces the MMPP instance described by the
// configuration.
func GenerateBursty(c BurstyConfig) item.List {
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
