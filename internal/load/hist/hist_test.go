package hist

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// exactQuantile returns the value at rank ceil(q*n) of the sorted
// sample — the definition Hist.quantile approximates.
func exactQuantile(sorted []int64, q float64) int64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// checkQuantiles records the sample and asserts every interior
// quantile is within the histogram's design error (1/32 relative,
// with one extra bucket of slack for rank-vs-boundary effects).
func checkQuantiles(t *testing.T, name string, sample []int64) {
	t.Helper()
	h := New()
	for _, v := range sample {
		h.recordNS(v)
	}
	sorted := append([]int64(nil), sample...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999} {
		got := h.quantile(q)
		want := exactQuantile(sorted, q)
		relErr := math.Abs(float64(got-want)) / math.Max(float64(want), 1)
		if relErr > 2.0/nSub {
			t.Errorf("%s: q=%g: hist %d vs exact %d (rel err %.4f > %.4f)",
				name, q, got, want, relErr, 2.0/nSub)
		}
	}
	if h.quantile(0) != sorted[0] || h.quantile(1) != sorted[len(sorted)-1] {
		t.Errorf("%s: extreme quantiles %d/%d, want exact %d/%d",
			name, h.quantile(0), h.quantile(1), sorted[0], sorted[len(sorted)-1])
	}
	if h.count.Load() != uint64(len(sample)) {
		t.Errorf("%s: count %d, want %d", name, h.count.Load(), len(sample))
	}
	var sum float64
	for _, v := range sample {
		sum += float64(v)
	}
	if mean := h.meanNS(); math.Abs(mean-sum/float64(len(sample))) > 1e-6*sum {
		t.Errorf("%s: mean %g, want %g", name, mean, sum/float64(len(sample)))
	}
}

func TestQuantileUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sample := make([]int64, 20000)
	for i := range sample {
		sample[i] = rng.Int63n(5_000_000) // up to 5ms in ns
	}
	checkQuantiles(t, "uniform", sample)
}

func TestQuantileLognormal(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sample := make([]int64, 20000)
	for i := range sample {
		// exp(N(12, 1)) ns: median ~163us, heavy right tail.
		sample[i] = int64(math.Exp(12 + rng.NormFloat64()))
	}
	checkQuantiles(t, "lognormal", sample)
}

// TestMergeAssociativity: (a ⊕ b) ⊕ c and a ⊕ (b ⊕ c) must agree
// bucket for bucket, and match recording everything into one histogram.
func TestMergeAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	parts := make([][]int64, 3)
	var all []int64
	for p := range parts {
		parts[p] = make([]int64, 5000)
		for i := range parts[p] {
			parts[p][i] = int64(math.Exp(8 + 3*rng.Float64()))
			all = append(all, parts[p][i])
		}
	}
	fill := func(vals []int64) *Hist {
		h := New()
		for _, v := range vals {
			h.recordNS(v)
		}
		return h
	}
	left := fill(parts[0]) // (a ⊕ b) ⊕ c
	left.Merge(fill(parts[1]))
	left.Merge(fill(parts[2]))
	bc := fill(parts[1]) // a ⊕ (b ⊕ c)
	bc.Merge(fill(parts[2]))
	right := fill(parts[0])
	right.Merge(bc)
	direct := fill(all)

	for _, pair := range [][2]*Hist{{left, right}, {left, direct}} {
		x, y := pair[0], pair[1]
		for i := range x.counts {
			if x.counts[i].Load() != y.counts[i].Load() {
				t.Fatalf("bucket %d differs: %d vs %d", i, x.counts[i].Load(), y.counts[i].Load())
			}
		}
		if x.count.Load() != y.count.Load() || x.minNS() != y.minNS() || x.maxNS() != y.maxNS() || x.meanNS() != y.meanNS() {
			t.Fatalf("digests differ: %+v vs %+v", x.Summary(), y.Summary())
		}
	}
}

// TestEdges exercises zero, negative (clamped), and overflow values.
func TestEdges(t *testing.T) {
	h := New()
	if h.quantile(0.5) != 0 || h.maxNS() != 0 || h.minNS() != 0 || h.meanNS() != 0 {
		t.Fatal("empty histogram must read as zeros")
	}
	if s := h.Summary(); s.Count != 0 || s.P99US != 0 {
		t.Fatalf("empty summary = %+v", s)
	}

	h.recordNS(0)
	if h.count.Load() != 1 || h.quantile(0.5) != 0 || h.maxNS() != 0 {
		t.Fatalf("after zero: count=%d q50=%d max=%d", h.count.Load(), h.quantile(0.5), h.maxNS())
	}

	h.recordNS(-5) // clamps to 0
	if h.count.Load() != 2 || h.minNS() != 0 || h.quantile(1) != 0 {
		t.Fatal("negative value must clamp to zero")
	}

	// The largest int64 lands in the top bucket rather than panicking,
	// and the exact max is preserved.
	h2 := New()
	h2.recordNS(math.MaxInt64)
	h2.recordNS(math.MaxInt64 - 1)
	if h2.count.Load() != 2 || h2.maxNS() != math.MaxInt64 {
		t.Fatalf("overflow: count=%d max=%d", h2.count.Load(), h2.maxNS())
	}
	if q := h2.quantile(0.5); q <= 0 {
		t.Fatalf("overflow quantile = %d, want positive", q)
	}

	// Exact sub-nSub buckets: small integers quantile exactly.
	h3 := New()
	for v := int64(1); v <= 10; v++ {
		h3.recordNS(v)
	}
	if q := h3.quantile(0.5); q != 5 {
		t.Fatalf("exact-bucket median = %d, want 5", q)
	}
}

func TestBucketMonotone(t *testing.T) {
	// bucketOf must be monotone and bucketMid must land inside the
	// bucket's value range across octave boundaries.
	prev := -1
	for _, v := range []int64{0, 1, 31, 32, 33, 63, 64, 127, 128, 1 << 20, 1<<20 + 1, 1 << 40, math.MaxInt64} {
		b := bucketOf(v)
		if b < prev {
			t.Fatalf("bucketOf not monotone at %d: %d < %d", v, b, prev)
		}
		prev = b
		if v < nSub {
			if bucketMid(b) != v {
				t.Fatalf("exact bucket %d has mid %d", v, bucketMid(b))
			}
		} else if mid := bucketMid(b); mid <= 0 {
			t.Fatalf("bucketMid(%d) = %d", b, mid)
		}
	}
}

// TestRecordNMatchesRecordNS holds RecordN(ns, n) to n calls of
// recordNS(ns): the same Summary and the same bucket counts, including
// a negative (clamped) value and a zero count.
func TestRecordNMatchesRecordNS(t *testing.T) {
	batched, single := New(), New()
	for _, c := range []struct {
		ns int64
		n  int
	}{{1500, 64}, {7, 3}, {-20, 2}, {250_000, 1}, {90_000_000, 17}, {42, 0}} {
		batched.RecordN(c.ns, c.n)
		for range c.n {
			single.recordNS(c.ns)
		}
		if b, s := batched.Summary(), single.Summary(); b != s {
			t.Fatalf("after RecordN(%d, %d): Summary %+v, want %+v", c.ns, c.n, b, s)
		}
	}
	for i := range batched.counts {
		if b, s := batched.counts[i].Load(), single.counts[i].Load(); b != s {
			t.Fatalf("bucket %d holds %d, want %d", i, b, s)
		}
	}
}
