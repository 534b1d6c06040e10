package main

import (
	"math"
	"slices"
)

// percentile returns the exact nearest-rank p-th percentile (0 < p <= 1) of
// an ascending sample: the smallest value with at least p of the sample at
// or below it.
func percentile[T uint32 | float64](sorted []T, p float64) T {
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median returns the middle value, or the mean of the middle two.
func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
