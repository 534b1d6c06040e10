// Package cloud maps packing results to money: the renting cost of the
// servers (bins) under pay-as-you-go billing. The paper's objective —
// total bin usage time — is the continuous idealization of per-hour
// billing on public clouds (Sec. I: on-demand instances "are normally
// charged according to their running hours"); this package quantizes each
// server's running time to a billing granularity and reports how far real
// invoices sit from the idealized usage-time objective (experiment E8).
package cloud

import (
	"fmt"
	"math"

	"dbp/internal/packing"
)

// BillingModel describes a pay-as-you-go price plan.
type BillingModel struct {
	// Granularity is the billing quantum in workload time units: each
	// server is charged for ceil(runtime/Granularity) quanta (every
	// started quantum is paid in full, as with per-hour billing).
	// Granularity 0 means continuous billing (pay exactly runtime).
	Granularity float64
	// Rate is the price per time unit of rented server time.
	Rate float64
}

// Hourly returns the classic per-hour plan, expressed in a workload whose
// time unit is unitsPerHour-th of an hour (e.g. pass 60 for minutes).
func Hourly(rate float64, unitsPerHour float64) BillingModel {
	return BillingModel{Granularity: unitsPerHour, Rate: rate / unitsPerHour}
}

// billedTime returns the billed time for one server running for the given
// duration: the duration rounded up to whole quanta (or unchanged under
// continuous billing). Zero-duration rentals are free.
func (m BillingModel) billedTime(runtime float64) float64 {
	if runtime <= 0 {
		return 0
	}
	if m.Granularity <= 0 {
		return runtime
	}
	return math.Ceil(runtime/m.Granularity-1e-12) * m.Granularity
}

// Invoice is the cost breakdown of one packing run under a billing model.
type Invoice struct {
	Model      BillingModel
	Servers    int
	UsageTime  float64 // the MinUsageTime objective (sum of runtimes)
	BilledTime float64 // sum of quantized runtimes
	Total      float64 // BilledTime * Rate
}

// Overhead returns the relative billing overhead (BilledTime/UsageTime -
// 1): how much the quantization inflates cost over the idealized
// objective. It is 0 under continuous billing and tends to 0 as runtimes
// grow long relative to the granularity.
func (iv Invoice) Overhead() float64 {
	if iv.UsageTime == 0 {
		return 0
	}
	return iv.BilledTime/iv.UsageTime - 1
}

// String renders the invoice.
func (iv Invoice) String() string {
	return fmt.Sprintf("%d servers, usage %.6g, billed %.6g (overhead %.2f%%), total %.6g",
		iv.Servers, iv.UsageTime, iv.BilledTime, 100*iv.Overhead(), iv.Total)
}

// Cost computes the invoice for a completed packing run.
func Cost(res *packing.Result, m BillingModel) Invoice {
	iv := Invoice{Model: m, Servers: res.NumBins(), UsageTime: res.TotalUsage}
	for _, b := range res.Bins {
		iv.BilledTime += m.billedTime(b.Usage())
	}
	iv.Total = iv.BilledTime * m.Rate
	return iv
}

// TierRate prices one fleet capacity tier.
type TierRate struct {
	Capacity float64
	Rate     float64 // price per time unit for servers of this capacity
}

// RatePlan prices a heterogeneous fleet: each server is billed at its
// capacity tier's rate, quantized to Granularity like BillingModel.
// Real catalogs price sub-linearly in capacity (a 2x server costs less
// than 2x), which is exactly the tension experiment E14 measures.
type RatePlan struct {
	Granularity float64
	Tiers       []TierRate
}

// rateFor returns the rate of the tier matching the capacity (within the
// admission tolerance); unknown capacities fall back to linear
// interpolation against the largest tier, keeping misconfigured runs
// visible rather than free.
func (p RatePlan) rateFor(capacity float64) float64 {
	best := -1
	for i, t := range p.Tiers {
		if math.Abs(t.Capacity-capacity) < 1e-9 {
			return p.Tiers[i].Rate
		}
		if best < 0 || t.Capacity > p.Tiers[best].Capacity {
			best = i
		}
	}
	if best < 0 {
		return 0
	}
	return p.Tiers[best].Rate * capacity / p.Tiers[best].Capacity
}

// CostFleet prices a heterogeneous-fleet run: per-server billed time at
// the server's tier rate.
func CostFleet(res *packing.Result, p RatePlan) Invoice {
	m := BillingModel{Granularity: p.Granularity}
	iv := Invoice{Model: m, Servers: res.NumBins(), UsageTime: res.TotalUsage}
	for _, b := range res.Bins {
		billed := m.billedTime(b.Usage())
		iv.BilledTime += billed
		iv.Total += billed * p.rateFor(b.Capacity)
	}
	return iv
}
