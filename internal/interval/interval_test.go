package interval

import (
	"math"
	"testing"
	"testing/quick"
)

// ival returns the interval [lo, hi).
func ival(lo, hi float64) Interval { return Interval{Lo: lo, Hi: hi} }

func TestLengthAndEmpty(t *testing.T) {
	cases := []struct {
		iv    Interval
		len   float64
		empty bool
	}{
		{ival(0, 0), 0, true},
		{ival(1, 1), 0, true},
		{ival(0, 1), 1, false},
		{ival(-2, 3), 5, false},
		{ival(0.5, 0.75), 0.25, false},
	}
	for _, c := range cases {
		if got := c.iv.Length(); got != c.len {
			t.Errorf("%v.Length() = %g, want %g", c.iv, got, c.len)
		}
		if got := c.iv.Empty(); got != c.empty {
			t.Errorf("%v.Empty() = %v, want %v", c.iv, got, c.empty)
		}
	}
}

func TestContainsHalfOpen(t *testing.T) {
	iv := ival(1, 2)
	if !iv.Contains(1) {
		t.Error("left endpoint must be contained")
	}
	if iv.Contains(2) {
		t.Error("right endpoint must not be contained (half-open)")
	}
	if !iv.Contains(1.5) {
		t.Error("interior point must be contained")
	}
	if iv.Contains(0.999) || iv.Contains(2.001) {
		t.Error("points outside must not be contained")
	}
}

func TestOverlapsTouchingIsDisjoint(t *testing.T) {
	a, b := ival(0, 1), ival(1, 2)
	if a.overlaps(b) || b.overlaps(a) {
		t.Error("touching half-open intervals must not overlap")
	}
	c := ival(0.5, 1.5)
	if !a.overlaps(c) || !c.overlaps(a) {
		t.Error("genuinely overlapping intervals must overlap")
	}
	empty := Interval{}
	if a.overlaps(empty) || empty.overlaps(a) {
		t.Error("empty interval overlaps nothing")
	}
}

func TestIntersect(t *testing.T) {
	a, b := ival(0, 10), ival(5, 15)
	got := a.Intersect(b)
	if got != ival(5, 10) {
		t.Errorf("intersect = %v, want [5, 10)", got)
	}
	if !ival(0, 1).Intersect(ival(2, 3)).Empty() {
		t.Error("disjoint intervals must intersect to empty")
	}
	if !ival(0, 1).Intersect(ival(1, 2)).Empty() {
		t.Error("touching intervals must intersect to empty")
	}
}

func TestString(t *testing.T) {
	if got := ival(0, 1.5).String(); got != "[0, 1.5)" {
		t.Errorf("String = %q", got)
	}
}

// Property: intersection measure is symmetric and bounded by each length.
func TestIntersectProperties(t *testing.T) {
	f := func(a0, a1, b0, b1 float64) bool {
		a := normalize(a0, a1)
		b := normalize(b0, b1)
		x, y := a.Intersect(b), b.Intersect(a)
		if x != y {
			return false
		}
		return x.Length() <= a.Length()+1e-12 && x.Length() <= b.Length()+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func normalize(a, b float64) Interval {
	a, b = clampFinite(a), clampFinite(b)
	if b < a {
		a, b = b, a
	}
	return ival(a, b)
}

func clampFinite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 1e6)
}
