package cloud

import (
	"math"
	"testing"

	"dbp/internal/item"
	"dbp/internal/packing"
	"dbp/internal/workload"
)

func TestBilledTimeQuantization(t *testing.T) {
	m := BillingModel{Granularity: 1, Rate: 1}
	cases := []struct{ in, want float64 }{
		{0, 0}, {0.1, 1}, {1, 1}, {1.0001, 2}, {2.5, 3}, {3, 3},
	}
	for _, c := range cases {
		if got := m.billedTime(c.in); got != c.want {
			t.Errorf("billedTime(%g) = %g, want %g", c.in, got, c.want)
		}
	}
	cont := BillingModel{Granularity: 0, Rate: 1}
	if got := cont.billedTime(2.34); got != 2.34 {
		t.Errorf("continuous billing must be exact, got %g", got)
	}
}

func TestBilledTimeExactMultipleNoOvercharge(t *testing.T) {
	// Floating point must not push an exact 7*0.25 runtime into an 8th
	// quantum.
	m := BillingModel{Granularity: 0.25, Rate: 1}
	if got := m.billedTime(7 * 0.25); math.Abs(got-1.75) > 1e-12 {
		t.Fatalf("billedTime = %g, want 1.75", got)
	}
}

func TestHourly(t *testing.T) {
	// Time unit = minutes; $0.60/hour.
	m := Hourly(0.60, 60)
	if m.Granularity != 60 {
		t.Fatal("granularity must be one hour in minutes")
	}
	// 90 minutes -> billed 120 minutes -> $1.20.
	if got := m.billedTime(90) * m.Rate; math.Abs(got-1.20) > 1e-12 {
		t.Fatalf("cost = %g, want 1.20", got)
	}
}

func TestCostInvoice(t *testing.T) {
	l := item.List{
		{ID: 1, Size: 1, Arrival: 0, Departure: 1.5},
		{ID: 2, Size: 1, Arrival: 0, Departure: 2},
	}
	res := packing.MustRun(packing.NewFirstFit(), l, nil)
	iv := Cost(res, BillingModel{Granularity: 1, Rate: 2})
	if iv.Servers != 2 || iv.UsageTime != 3.5 {
		t.Fatalf("invoice = %+v", iv)
	}
	if iv.BilledTime != 4 { // ceil(1.5)=2, ceil(2)=2
		t.Fatalf("billed = %g, want 4", iv.BilledTime)
	}
	if iv.Total != 8 {
		t.Fatalf("total = %g, want 8", iv.Total)
	}
	if math.Abs(iv.Overhead()-(4/3.5-1)) > 1e-12 {
		t.Fatalf("overhead = %g", iv.Overhead())
	}
	if iv.String() == "" {
		t.Fatal("empty String")
	}
}

func TestOverheadShrinksWithFinerGranularity(t *testing.T) {
	l, err := workload.FromSpec("uniform", 200, 2, 6, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := packing.MustRun(packing.NewFirstFit(), l, nil)
	var prev = math.Inf(1)
	for _, g := range []float64{2, 1, 0.25, 0.01, 0} {
		iv := Cost(res, BillingModel{Granularity: g, Rate: 1})
		if iv.Overhead() > prev+1e-9 {
			t.Fatalf("overhead must shrink with granularity %g: %g > %g", g, iv.Overhead(), prev)
		}
		prev = iv.Overhead()
		if iv.BilledTime < iv.UsageTime-1e-9 {
			t.Fatal("billing can never undercut usage")
		}
	}
	if math.Abs(prev) > 1e-12 {
		t.Fatalf("continuous billing overhead must vanish, got %g", prev)
	}
}

func TestZeroUsageInvoice(t *testing.T) {
	res := packing.MustRun(packing.NewFirstFit(), item.List{}, nil)
	iv := Cost(res, BillingModel{Granularity: 1, Rate: 1})
	if iv.Total != 0 || iv.Overhead() != 0 {
		t.Fatalf("empty invoice = %+v", iv)
	}
}

func TestRatePlanTierMatching(t *testing.T) {
	p := RatePlan{Granularity: 1, Tiers: []TierRate{
		{Capacity: 0.25, Rate: 0.3},
		{Capacity: 1.0, Rate: 1.0},
	}}
	if got := p.rateFor(0.25); got != 0.3 {
		t.Fatalf("rate = %g", got)
	}
	if got := p.rateFor(1.0); got != 1.0 {
		t.Fatalf("rate = %g", got)
	}
	// Unknown capacity: linear fallback against the largest tier.
	if got := p.rateFor(0.5); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("fallback rate = %g, want 0.5", got)
	}
}

func TestCostFleetBillsPerTier(t *testing.T) {
	l := item.List{
		{ID: 1, Size: 0.2, Arrival: 0, Departure: 1.5},
		{ID: 2, Size: 0.9, Arrival: 0, Departure: 1.5},
	}
	fleet := []packing.ServerType{
		{Name: "small", Capacity: 0.25},
		{Name: "large", Capacity: 1.0},
	}
	res, err := packing.RunFleet(packing.NewFirstFit(), l, fleet, packing.RightSize(), nil)
	if err != nil {
		t.Fatal(err)
	}
	p := RatePlan{Granularity: 1, Tiers: []TierRate{
		{Capacity: 0.25, Rate: 0.3},
		{Capacity: 1.0, Rate: 1.0},
	}}
	iv := CostFleet(res, p)
	// Both servers billed ceil(1.5) = 2: small 2*0.3 + large 2*1.0 = 2.6.
	if math.Abs(iv.Total-2.6) > 1e-12 {
		t.Fatalf("total = %g, want 2.6", iv.Total)
	}
	if iv.BilledTime != 4 {
		t.Fatalf("billed = %g", iv.BilledTime)
	}
}
