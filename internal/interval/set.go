package interval

import "sort"

// Set is a union of half-open intervals maintained in canonical form:
// sorted by Lo, pairwise disjoint, non-empty, and non-touching (adjacent
// intervals are merged). The zero value is the empty set, ready to use.
type Set struct {
	ivs []Interval
}

// NewSet builds a canonical set from arbitrary intervals; empty intervals
// are dropped and overlapping or touching ones are merged.
func NewSet(ivs ...Interval) *Set {
	s := &Set{}
	for _, iv := range ivs {
		s.Add(iv)
	}
	return s
}

// Add inserts the interval into the set, merging as needed.
func (s *Set) Add(iv Interval) {
	if iv.Empty() {
		return
	}
	// Find insertion window: all existing intervals that overlap or touch iv.
	i := sort.Search(len(s.ivs), func(k int) bool { return s.ivs[k].Hi >= iv.Lo })
	j := sort.Search(len(s.ivs), func(k int) bool { return s.ivs[k].Lo > iv.Hi })
	if i < j {
		if s.ivs[i].Lo < iv.Lo {
			iv.Lo = s.ivs[i].Lo
		}
		if s.ivs[j-1].Hi > iv.Hi {
			iv.Hi = s.ivs[j-1].Hi
		}
	}
	out := make([]Interval, 0, len(s.ivs)-(j-i)+1)
	out = append(out, s.ivs[:i]...)
	out = append(out, iv)
	out = append(out, s.ivs[j:]...)
	s.ivs = out
}

// Measure returns the total length of the set (Lebesgue measure).
func (s *Set) Measure() float64 {
	var m float64
	for _, iv := range s.ivs {
		m += iv.Length()
	}
	return m
}

// Overlaps reports whether the set has positive-measure intersection with iv.
func (s *Set) Overlaps(iv Interval) bool {
	for _, x := range s.ivs {
		if x.overlaps(iv) {
			return true
		}
	}
	return false
}

// Span returns the measure of the union of the given intervals: the paper's
// span(R) when applied to item active intervals (Sec. III-A, Figure 1).
func Span(ivs []Interval) float64 {
	s := NewSet(ivs...)
	return s.Measure()
}
