package main

import (
	"math"
	"slices"

	"dbp/internal/item"
)

// The benchmark flattens, partitions and bounds its scripts itself, so a
// rewrite of internal/load or internal/opt cannot move its numbers.

// event is one arrive or depart of a flattened script; job indexes the
// generated list.
type event struct {
	t      float64
	job    int32
	depart bool
}

// flatten orders a list's arrivals and departures by time. At equal times
// departures go first (intervals are half-open), then the lower job ID.
func flatten(l item.List) []event {
	evs := make([]event, 0, 2*len(l))
	for i, it := range l {
		evs = append(evs,
			event{t: it.Arrival, job: int32(i)},
			event{t: it.Departure, job: int32(i), depart: true})
	}
	slices.SortFunc(evs, func(a, b event) int {
		switch {
		case a.t != b.t:
			if a.t < b.t {
				return -1
			}
			return 1
		case a.depart != b.depart:
			if a.depart {
				return -1
			}
			return 1
		}
		return int(l[a.job].ID - l[b.job].ID)
	})
	return evs
}

// partition splits a script among n callers by job ID, so a job's arrive
// and depart stay with one caller, in order.
func partition(evs []event, l item.List, n int) [][]event {
	parts := make([][]event, n)
	for i := range parts {
		parts[i] = make([]event, 0, len(evs)/n+len(evs)/(4*n))
	}
	for _, e := range evs {
		c := int(uint64(l[e.job].ID) % uint64(n))
		parts[c] = append(parts[c], e)
	}
	return parts
}

// lowerBound returns max(span, max_k sum_r s_k(r)*|I(r) cut at tEnd|): no
// packing of the jobs into unit-capacity servers accumulates less usage time
// up to tEnd. At least one server is open while any job is active, which gives
// the span; and in every dimension the open servers hold the active demand,
// which gives the per-dimension sums. A departure of +Inf marks a job that
// is still running at tEnd.
func lowerBound(l item.List, tEnd float64) float64 {
	type iv struct{ lo, hi float64 }
	ivs := make([]iv, 0, len(l))
	var demand []float64
	for _, it := range l {
		hi := math.Min(it.Departure, tEnd)
		if hi <= it.Arrival {
			continue
		}
		ivs = append(ivs, iv{it.Arrival, hi})
		for len(demand) < it.Dim() {
			demand = append(demand, 0)
		}
		if len(it.Sizes) == 0 {
			demand[0] += it.Size * (hi - it.Arrival)
		}
		for k, s := range it.Sizes {
			demand[k] += s * (hi - it.Arrival)
		}
	}
	slices.SortFunc(ivs, func(a, b iv) int {
		if a.lo < b.lo {
			return -1
		}
		if a.lo > b.lo {
			return 1
		}
		return 0
	})
	span, end := 0.0, math.Inf(-1)
	for _, v := range ivs {
		if v.lo > end {
			span += v.hi - v.lo
			end = v.hi
		} else if v.hi > end {
			span += v.hi - end
			end = v.hi
		}
	}
	return max(span, slices.Max(append(demand, 0)))
}
