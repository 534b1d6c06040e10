// Package interval provides half-open time intervals [Lo, Hi) and sets of
// intervals, the basic temporal vocabulary of the MinUsageTime Dynamic Bin
// Packing problem. Following the paper (Tang et al., IPDPS 2016, Sec. III-A),
// all intervals are half-open: an item departing at time t is no longer
// active at t.
package interval

import (
	"fmt"
	"math"
)

// Interval is a half-open time interval [Lo, Hi). The zero value is the
// empty interval [0, 0).
type Interval struct {
	Lo, Hi float64
}

// Length returns Hi-Lo, the measure of the interval. The paper writes |I|.
func (iv Interval) Length() float64 { return iv.Hi - iv.Lo }

// Empty reports whether the interval has zero length.
func (iv Interval) Empty() bool { return iv.Hi <= iv.Lo }

// Contains reports whether t lies in [Lo, Hi).
func (iv Interval) Contains(t float64) bool { return iv.Lo <= t && t < iv.Hi }

// Overlaps reports whether the two half-open intervals share any point.
// Touching endpoints ([0,1) and [1,2)) do not overlap.
func (iv Interval) Overlaps(other Interval) bool {
	if iv.Empty() || other.Empty() {
		return false
	}
	return iv.Lo < other.Hi && other.Lo < iv.Hi
}

// Intersect returns the intersection of the two intervals, which may be
// empty. An empty result is normalized to the zero Interval.
func (iv Interval) Intersect(other Interval) Interval {
	lo := math.Max(iv.Lo, other.Lo)
	hi := math.Min(iv.Hi, other.Hi)
	if hi <= lo {
		return Interval{}
	}
	return Interval{Lo: lo, Hi: hi}
}

// Hull returns the smallest interval containing both iv and other.
// If one is empty, the other is returned.
func (iv Interval) Hull(other Interval) Interval {
	if iv.Empty() {
		return other
	}
	if other.Empty() {
		return iv
	}
	return Interval{Lo: math.Min(iv.Lo, other.Lo), Hi: math.Max(iv.Hi, other.Hi)}
}

// String renders the interval in the paper's [lo, hi) notation.
func (iv Interval) String() string { return fmt.Sprintf("[%g, %g)", iv.Lo, iv.Hi) }
