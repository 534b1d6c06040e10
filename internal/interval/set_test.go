package interval

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSetZeroValue(t *testing.T) {
	var s Set
	if s.Measure() != 0 || s.Len() != 0 {
		t.Error("zero Set must be empty")
	}
	s.Add(ival(0, 1))
	if s.Measure() != 1 {
		t.Error("zero Set must be usable after Add")
	}
}

func TestSetMergeOverlapping(t *testing.T) {
	s := NewSet(ival(0, 2), ival(1, 3))
	if s.Len() != 1 || s.Measure() != 3 {
		t.Errorf("got %v (measure %g), want single [0,3)", s, s.Measure())
	}
}

func TestSetMergeTouching(t *testing.T) {
	s := NewSet(ival(0, 1), ival(1, 2))
	if s.Len() != 1 || s.Measure() != 2 {
		t.Errorf("touching intervals must merge: %v", s)
	}
}

func TestSetDisjointStayDisjoint(t *testing.T) {
	s := NewSet(ival(0, 1), ival(2, 3), ival(4, 5))
	if s.Len() != 3 || s.Measure() != 3 {
		t.Errorf("got %v", s)
	}
	if !s.Contains(0) || s.Contains(1) || !s.Contains(2.5) || s.Contains(3.7) {
		t.Error("Contains misbehaves on disjoint set")
	}
}

func TestSetBridgingAdd(t *testing.T) {
	s := NewSet(ival(0, 1), ival(2, 3))
	s.Add(ival(0.5, 2.5))
	if s.Len() != 1 || s.Measure() != 3 {
		t.Errorf("bridging add must merge all: %v", s)
	}
}

func TestSetAddEmptyIsNoop(t *testing.T) {
	s := NewSet(ival(0, 1))
	s.Add(Interval{})
	if s.Len() != 1 || s.Measure() != 1 {
		t.Errorf("empty add changed set: %v", s)
	}
}

func TestSetOverlaps(t *testing.T) {
	s := NewSet(ival(0, 1), ival(2, 3))
	if s.Overlaps(ival(1, 2)) {
		t.Error("gap must not overlap")
	}
	if !s.Overlaps(ival(0.9, 1.1)) {
		t.Error("must overlap first interval")
	}
}

func TestSpan(t *testing.T) {
	// Figure 1 style example: three overlapping items plus one detached.
	got := Span([]Interval{ival(0, 2), ival(1, 3), ival(2.5, 4), ival(10, 11)})
	if got != 5 {
		t.Errorf("span = %g, want 5", got)
	}
	if Span(nil) != 0 {
		t.Error("span of nothing is 0")
	}
}

// String renders the set as a union of intervals, for the failure
// messages of these tests.
func (s *Set) String() string {
	if len(s.ivs) == 0 {
		return "{}"
	}
	parts := make([]string, len(s.ivs))
	for i, iv := range s.ivs {
		parts[i] = iv.String()
	}
	return strings.Join(parts, " ∪ ")
}

func TestSetString(t *testing.T) {
	if got := NewSet().String(); got != "{}" {
		t.Errorf("empty set String = %q", got)
	}
	if got := NewSet(ival(0, 1), ival(2, 3)).String(); got != "[0, 1) ∪ [2, 3)" {
		t.Errorf("set String = %q", got)
	}
}

// Property: the canonical form invariants hold after random adds, and the
// measure equals a brute-force grid estimate within tolerance.
func TestSetCanonicalInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		s := NewSet()
		var raw []Interval
		for k := 0; k < 30; k++ {
			lo := math.Floor(rng.Float64()*64) / 4
			length := math.Floor(rng.Float64()*16) / 4
			iv := ival(lo, lo+length)
			raw = append(raw, iv)
			s.Add(iv)
		}
		ivs := s.Intervals()
		for i := range ivs {
			if ivs[i].Empty() {
				t.Fatalf("canonical set holds empty interval: %v", s)
			}
			if i > 0 && ivs[i-1].Hi >= ivs[i].Lo {
				t.Fatalf("canonical set not sorted/disjoint/merged: %v", s)
			}
		}
		// Brute-force measure on a fine grid (all endpoints are multiples of 1/4).
		var brute float64
		for x := 0.0; x < 100; x += 0.25 {
			mid := x + 0.125
			covered := false
			for _, iv := range raw {
				if iv.Contains(mid) {
					covered = true
					break
				}
			}
			if covered {
				brute += 0.25
			}
		}
		if math.Abs(brute-s.Measure()) > 1e-9 {
			t.Fatalf("measure %g != brute force %g for %v", s.Measure(), brute, s)
		}
	}
}

// Property: adding intervals in any order yields the same canonical set.
func TestSetOrderIndependence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		ivs := make([]Interval, n)
		for i := range ivs {
			lo := rng.Float64() * 100
			ivs[i] = ival(lo, lo+rng.Float64()*10)
		}
		a := NewSet(ivs...)
		// Reverse order.
		b := NewSet()
		for i := n - 1; i >= 0; i-- {
			b.Add(ivs[i])
		}
		ai, bi := a.Intervals(), b.Intervals()
		if len(ai) != len(bi) {
			return false
		}
		for i := range ai {
			if ai[i] != bi[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Len returns the number of disjoint maximal intervals in the set.
func (s *Set) Len() int { return len(s.ivs) }

// Intervals returns a copy of the canonical intervals, sorted by Lo.
func (s *Set) Intervals() []Interval {
	out := make([]Interval, len(s.ivs))
	copy(out, s.ivs)
	return out
}

// Contains reports whether t is in the union.
func (s *Set) Contains(t float64) bool {
	i := sort.Search(len(s.ivs), func(k int) bool { return s.ivs[k].Hi > t })
	return i < len(s.ivs) && s.ivs[i].Contains(t)
}
