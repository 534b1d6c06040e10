// Package workload generates problem instances for the MinUsageTime DBP
// experiments: random cloud-like workloads (Poisson arrivals with
// configurable size and duration distributions) and the adversarial
// constructions behind the paper's lower bounds (Sec. VIII's Next Fit
// instance, the Any Fit gap-seal trap, and an adaptive Best Fit relay).
//
// All generation is deterministic given a seed.
package workload

import (
	"math"
	"math/rand"
)

// dist is a distribution over positive reals, sampled with an explicit
// random source so generators stay deterministic and parallel-safe.
type dist interface {
	Sample(rng *rand.Rand) float64
}

// constantDist is the degenerate distribution at V.
type constantDist struct{ V float64 }

// Sample implements dist.
func (c constantDist) Sample(*rand.Rand) float64 { return c.V }

// uniformDist is the continuous uniform distribution on [Lo, Hi].
type uniformDist struct{ Lo, Hi float64 }

// Sample implements dist.
func (u uniformDist) Sample(rng *rand.Rand) float64 { return u.Lo + rng.Float64()*(u.Hi-u.Lo) }

// truncExpDist is an exponential distribution with the given Mean, truncated
// (by resampling) to [Lo, Hi] so the workload's duration ratio mu stays
// controlled — the paper's bounds are parameterized by max/min duration,
// so experiment workloads must pin both.
type truncExpDist struct{ Mean, Lo, Hi float64 }

// Sample implements dist.
func (e truncExpDist) Sample(rng *rand.Rand) float64 {
	for i := 0; i < 1000; i++ {
		x := rng.ExpFloat64() * e.Mean
		if x >= e.Lo && x <= e.Hi {
			return x
		}
	}
	// Mean far outside [Lo, Hi]: fall back to clamping.
	return math.Min(math.Max(e.Mean, e.Lo), e.Hi)
}

// paretoDist is a Pareto (power-law) distribution with shape Alpha on
// [Lo, Hi], the classic heavy-tailed model for session lengths: most jobs
// short, a few very long — exactly the regime where large mu matters.
type paretoDist struct {
	Alpha  float64
	Lo, Hi float64
}

// Sample implements dist (inverse-CDF method).
func (p paretoDist) Sample(rng *rand.Rand) float64 {
	u := rng.Float64()
	la := math.Pow(p.Lo, p.Alpha)
	ha := math.Pow(p.Hi, p.Alpha)
	return math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/p.Alpha)
}

// bimodalDist mixes two distributions: A with probability PA, otherwise B.
// Typical use: many short jobs, few long ones.
type bimodalDist struct {
	A, B dist
	PA   float64
}

// Sample implements dist.
func (b bimodalDist) Sample(rng *rand.Rand) float64 {
	if rng.Float64() < b.PA {
		return b.A.Sample(rng)
	}
	return b.B.Sample(rng)
}

// choiceDist picks uniformly (or with Weights) from a fixed set of values —
// the natural model for a catalog of instance types or game titles with
// fixed resource demands.
type choiceDist struct {
	Values  []float64
	Weights []float64 // optional; uniform when nil
}

// Sample implements dist.
func (c choiceDist) Sample(rng *rand.Rand) float64 {
	if len(c.Weights) == 0 {
		return c.Values[rng.Intn(len(c.Values))]
	}
	var total float64
	for _, w := range c.Weights {
		total += w
	}
	x := rng.Float64() * total
	for i, w := range c.Weights {
		x -= w
		if x <= 0 {
			return c.Values[i]
		}
	}
	return c.Values[len(c.Values)-1]
}
