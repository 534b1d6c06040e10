package main

import (
	"math"
	"testing"

	"dbp/internal/item"
)

func TestLowerBound(t *testing.T) {
	inf := math.Inf(1)
	// Four jobs at d=2, computed by hand. Span: [0,4) and [6,10) make 8.
	// Dimension 0: 0.5*4 + 0.4*2 + 0.3*2 + 0.2*3 = 4.0.
	// Dimension 1: 0.2*4 + 0.6*2 + 0.9*2 + 0.1*3 = 4.1.
	sparse := item.List{
		{ID: 1, Size: 0.5, Sizes: []float64{0.5, 0.2}, Arrival: 0, Departure: 4},
		{ID: 2, Size: 0.6, Sizes: []float64{0.4, 0.6}, Arrival: 1, Departure: 3},
		{ID: 3, Size: 0.9, Sizes: []float64{0.3, 0.9}, Arrival: 6, Departure: 8},
		{ID: 4, Size: 0.2, Sizes: []float64{0.2, 0.1}, Arrival: 7, Departure: 10},
	}
	// The same four, all active over [0,10): the span is 10, and
	// dimension 1 sums to (0.2+0.6+0.9+0.1)*10 = 18.
	dense := make(item.List, len(sparse))
	for i, it := range sparse {
		it.Arrival, it.Departure = 0, 10
		dense[i] = it
	}
	// Two jobs that share one server for two time units. The sum of their
	// largest components, 1.8*2, is no bound: the optimum is 2.
	pair := item.List{
		{ID: 1, Size: 0.9, Sizes: []float64{0.9, 0.1}, Arrival: 0, Departure: 2},
		{ID: 2, Size: 0.9, Sizes: []float64{0.1, 0.9}, Arrival: 0, Departure: 2},
	}
	running := item.List{{ID: 1, Size: 0.5, Arrival: 1, Departure: inf}}

	for _, c := range []struct {
		name string
		l    item.List
		tEnd float64
		want float64
	}{
		{"span wins", sparse, inf, 8},
		// Cut at 7.5: span 4 + 1.5; dimension 1 is 0.8+1.2+0.9*1.5+0.1*0.5 = 3.4.
		{"cut at tEnd", sparse, 7.5, 5.5},
		{"demand wins", dense, inf, 18},
		{"demand cut at tEnd", dense, 5, 9},
		{"not the sum of largest components", pair, inf, 2},
		{"still running at tEnd", running, 4, 3},
		{"arrives after tEnd", running, 0.5, 0},
	} {
		if got := lowerBound(c.l, c.tEnd); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: lowerBound = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestFlattenOrdersDeparturesFirst(t *testing.T) {
	l := item.List{
		{ID: 2, Size: 0.5, Arrival: 1, Departure: 2},
		{ID: 1, Size: 0.5, Arrival: 0, Departure: 1},
		{ID: 3, Size: 0.5, Arrival: 1, Departure: 3},
	}
	var got []event
	for _, e := range flatten(l) {
		got = append(got, event{job: e.job, depart: e.depart})
	}
	want := []event{{job: 1}, {job: 1, depart: true}, {job: 0}, {job: 2}, {job: 0, depart: true}, {job: 2, depart: true}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{0.5: 5, 0.99: 10, 0.9: 9, 0.01: 1} {
		if got := percentile(s, p); got != want {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
}
