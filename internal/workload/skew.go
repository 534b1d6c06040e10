package workload

import (
	"fmt"
	"math"
	"math/rand"

	"dbp/internal/item"
)

// This file holds the skewed workload families motivated by the related
// work (ROADMAP "Pluggable scenario registry"): Zipf-skewed job sizes,
// hotspot tenant traffic, and diurnal (sinusoid-modulated) arrival
// curves. All are deterministic given a seed, like every generator in
// this package.

// zipfSampler draws 1-based ranks with P(r) proportional to r^-alpha
// over a finite rank set, by inverse CDF. math/rand's Zipf requires
// alpha > 1; experiment sweeps want the full range, so the finite-support
// sampler is implemented directly.
type zipfSampler struct {
	cum []float64 // cumulative unnormalized weights, cum[r-1] = sum_{i<=r} i^-alpha
}

func newZipfSampler(alpha float64, ranks int) *zipfSampler {
	cum := make([]float64, ranks)
	total := 0.0
	for r := 1; r <= ranks; r++ {
		total += math.Pow(float64(r), -alpha)
		cum[r-1] = total
	}
	return &zipfSampler{cum: cum}
}

// rank returns a 1-based rank.
func (z *zipfSampler) rank(rng *rand.Rand) int {
	x := rng.Float64() * z.cum[len(z.cum)-1]
	// Binary search for the first cumulative weight >= x.
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo + 1
}

// zipfianConfig describes a workload whose job sizes come from a finite
// catalog of size classes with Zipf-skewed popularity: class rank 1 is
// the most frequent and the smallest, the tail classes are rare and
// large — the canonical shape of VM-type popularity in public cluster
// traces (a handful of small flavors dominate, big flavors are rare).
type zipfianConfig struct {
	Config
	// Alpha is the skew exponent (> 0): frequency of rank r ~ r^-Alpha.
	Alpha float64
	// Classes is the number of size classes (>= 2).
	Classes int
	// LoSize and HiSize bound the class sizes; rank 1 maps to LoSize and
	// rank Classes to HiSize on a geometric grid.
	LoSize, HiSize float64
}

// SizeOfRank maps a 1-based popularity rank to its class size on the
// geometric grid from LoSize (rank 1) to HiSize (rank Classes).
func (c zipfianConfig) SizeOfRank(r int) float64 {
	return c.LoSize * math.Pow(c.HiSize/c.LoSize, float64(r-1)/float64(c.Classes-1))
}

// RankOfSize inverts SizeOfRank (used by the rank-frequency statistics
// test to recover the sampled rank from an emitted item).
func (c zipfianConfig) RankOfSize(s float64) int {
	r := 1 + float64(c.Classes-1)*math.Log(s/c.LoSize)/math.Log(c.HiSize/c.LoSize)
	return int(math.Round(r))
}

// generateZipfian produces a Poisson-arrival instance with Zipf-skewed
// size classes. dim > 1 draws an independent rank per dimension (scalar
// Size is the max component, the package convention).
func generateZipfian(c zipfianConfig, dim int) item.List {
	if c.N <= 0 || c.Rate <= 0 || c.Alpha <= 0 || c.Classes < 2 ||
		c.LoSize <= 0 || c.HiSize <= c.LoSize || c.HiSize > 1 {
		panic(fmt.Sprintf("workload: bad zipfian config %+v", c))
	}
	rng := rand.New(rand.NewSource(c.Seed))
	z := newZipfSampler(c.Alpha, c.Classes)
	size := func() float64 { return c.SizeOfRank(z.rank(rng)) }
	l := make(item.List, c.N)
	buf := demandBuf(c.N, dim)
	t := 0.0
	for i := range l {
		t += rng.ExpFloat64() / c.Rate
		d := c.Duration.Sample(rng)
		l[i] = item.Item{ID: item.ID(i + 1), Arrival: t, Departure: t + d}
		drawDemand(&l[i], dim, &buf, size)
	}
	return l
}

// hotspotConfig describes multi-tenant traffic where a few hot tenants
// dominate: HotShare of all jobs belong to the HotFrac fraction of
// tenants (tenants 0..hot-1). Job IDs carry the tenant affinity —
// ID = seq*Tenants + tenant + 1 — so downstream layers (sharding,
// accounting) can recover the tenant as (ID-1) mod Tenants without a side
// table.
type hotspotConfig struct {
	Config
	// Tenants is the tenant population size (>= 2).
	Tenants int
	// HotFrac is the fraction of tenants that are hot, in (0, 1).
	HotFrac float64
	// HotShare is the fraction of traffic routed to hot tenants, in (0, 1].
	HotShare float64
}

// HotTenants returns the number of hot tenants implied by the config
// (at least 1, at most Tenants-1).
func (c hotspotConfig) HotTenants() int {
	h := int(math.Round(c.HotFrac * float64(c.Tenants)))
	if h < 1 {
		h = 1
	}
	if h >= c.Tenants {
		h = c.Tenants - 1
	}
	return h
}

// generateHotspot produces the multi-tenant instance: Poisson arrivals,
// each job assigned to a hot tenant with probability HotShare (uniform
// within the hot set), otherwise to a cold tenant. dim > 1 draws vector
// demands with independent components.
func generateHotspot(c hotspotConfig, dim int) item.List {
	if c.N <= 0 || c.Rate <= 0 || c.Tenants < 2 ||
		c.HotFrac <= 0 || c.HotFrac >= 1 || c.HotShare <= 0 || c.HotShare > 1 {
		panic(fmt.Sprintf("workload: bad hotspot config %+v", c))
	}
	rng := rand.New(rand.NewSource(c.Seed))
	hot := c.HotTenants()
	cold := c.Tenants - hot
	size := func() float64 { return clampSize(c.Size.Sample(rng)) }
	l := make(item.List, c.N)
	buf := demandBuf(c.N, dim)
	t := 0.0
	for i := range l {
		t += rng.ExpFloat64() / c.Rate
		d := c.Duration.Sample(rng)
		tenant := 0
		if rng.Float64() < c.HotShare {
			tenant = rng.Intn(hot)
		} else {
			tenant = hot + rng.Intn(cold)
		}
		id := item.ID(int64(i)*int64(c.Tenants) + int64(tenant) + 1)
		l[i] = item.Item{ID: id, Arrival: t, Departure: t + d}
		drawDemand(&l[i], dim, &buf, size)
	}
	return l
}

// diurnalConfig describes a sinusoid-modulated arrival curve: the
// instantaneous rate is Rate * (1 + Amplitude*sin(2*pi*t/Period)) — the
// day/night load cycle every production allocator rides. Amplitude 0.8
// gives a 9x peak-to-trough rate ratio.
type diurnalConfig struct {
	Config
	// Amplitude is the relative modulation depth, in [0, 0.95].
	Amplitude float64
	// Period is the cycle length in workload time units; 0 picks one
	// automatically so the instance spans about four cycles.
	Period float64
}

// EffectivePeriod resolves Period = 0 to the automatic choice: the
// expected arrival span N/Rate divided into four cycles.
func (c diurnalConfig) EffectivePeriod() float64 {
	if c.Period > 0 {
		return c.Period
	}
	return float64(c.N) / c.Rate / 4
}

// generateDiurnal produces the modulated-Poisson instance by thinning: a
// homogeneous candidate stream at the peak rate Rate*(1+Amplitude) is
// accepted with probability rate(t)/peak — the standard exact simulation
// of an inhomogeneous Poisson process, deterministic given the seed.
func generateDiurnal(c diurnalConfig, dim int) item.List {
	if c.N <= 0 || c.Rate <= 0 || c.Amplitude < 0 || c.Amplitude > 0.95 {
		panic(fmt.Sprintf("workload: bad diurnal config %+v", c))
	}
	rng := rand.New(rand.NewSource(c.Seed))
	period := c.EffectivePeriod()
	peak := c.Rate * (1 + c.Amplitude)
	size := func() float64 { return clampSize(c.Size.Sample(rng)) }
	l := make(item.List, c.N)
	buf := demandBuf(c.N, dim)
	t := 0.0
	for i := 0; i < c.N; {
		t += rng.ExpFloat64() / peak
		rate := c.Rate * (1 + c.Amplitude*math.Sin(2*math.Pi*t/period))
		if rng.Float64()*peak > rate {
			continue
		}
		d := c.Duration.Sample(rng)
		l[i] = item.Item{ID: item.ID(i + 1), Arrival: t, Departure: t + d}
		drawDemand(&l[i], dim, &buf, size)
		i++
	}
	return l
}
