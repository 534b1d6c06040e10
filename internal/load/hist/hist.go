// Package hist provides a log-bucketed latency histogram in the style
// of HDR histograms: fixed memory, constant-time recording, bounded
// relative error, and lossless merging. It is the measurement core
// shared by the load-generation driver (internal/load), which merges
// one histogram per client goroutine, and by the allocation service
// (internal/serve), which records into one shared histogram per op
// type on the request path.
//
// Values are latencies in nanoseconds. Buckets [0, nSub) hold exact
// values; above that each power of two is split into nSub log-spaced
// sub-buckets, so any quantile estimate is within a relative error of
// 1/nSub (3.2% for nSub = 32) of the true recorded value. The exact
// minimum, maximum, count, and sum are tracked separately.
//
// All methods are safe for concurrent use: recording is atomic adds
// plus CAS loops for min/max, and readers observe a (possibly slightly
// stale) consistent-enough view without locking writers out.
package hist

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

const (
	// subBits fixes the resolution: 2^subBits sub-buckets per octave.
	subBits = 5
	nSub    = 1 << subBits
	// maxExp is the largest exponent a nanosecond latency can carry in
	// an int64 (2^62 ns ≈ 146 years); values at or above the last
	// bucket's range are clamped into it rather than dropped.
	maxExp   = 62
	nBuckets = nSub + (maxExp-subBits+1)*nSub
)

// Hist is a mergeable log-bucketed latency histogram. The zero value
// is NOT ready to use; call New.
type Hist struct {
	counts [nBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64
	min    atomic.Int64 // exact; math.MaxInt64 when empty
	max    atomic.Int64 // exact; -1 when empty
}

// New returns an empty histogram.
func New() *Hist {
	h := &Hist{}
	h.min.Store(math.MaxInt64)
	h.max.Store(-1)
	return h
}

// bucketOf maps a non-negative nanosecond value to its bucket index.
func bucketOf(v int64) int {
	if v < nSub {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // >= subBits
	if exp > maxExp {
		exp = maxExp
	}
	shift := exp - subBits
	sub := int((uint64(v) >> shift) & (nSub - 1))
	return nSub + (exp-subBits)*nSub + sub
}

// bucketMid returns the representative (midpoint) value of bucket b.
func bucketMid(b int) int64 {
	if b < nSub {
		return int64(b) // exact bucket
	}
	g := (b - nSub) / nSub // exponent group: exp = subBits + g
	sub := (b - nSub) % nSub
	shift := g // = exp - subBits
	lo := int64(nSub+sub) << shift
	return lo + (int64(1)<<shift)/2
}

// recordNS records one latency in nanoseconds. Negative values clamp
// to zero (a clock hiccup, not data).
func (h *Hist) recordNS(ns int64) { h.RecordN(ns, 1) }

// RecordN records n latencies of ns nanoseconds each, with one round
// of atomics: the same histogram as n calls to recordNS(ns). n <= 0
// records nothing.
func (h *Hist) RecordN(ns int64, n int) {
	if n <= 0 {
		return
	}
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(ns)].Add(uint64(n))
	h.count.Add(uint64(n))
	h.sum.Add(ns * int64(n))
	for {
		m := h.min.Load()
		if ns >= m || h.min.CompareAndSwap(m, ns) {
			break
		}
	}
	for {
		m := h.max.Load()
		if ns <= m || h.max.CompareAndSwap(m, ns) {
			break
		}
	}
}

// Record records one latency as a time.Duration.
func (h *Hist) Record(d time.Duration) { h.recordNS(d.Nanoseconds()) }

// Merge adds o's recorded values into h. Both histograms may be
// concurrently written during the merge; h then reflects some
// interleaving-consistent superset of o's state at call time.
func (h *Hist) Merge(o *Hist) {
	for i := range o.counts {
		if c := o.counts[i].Load(); c > 0 {
			h.counts[i].Add(c)
		}
	}
	h.count.Add(o.count.Load())
	h.sum.Add(o.sum.Load())
	if om := o.min.Load(); om != math.MaxInt64 {
		for {
			m := h.min.Load()
			if om >= m || h.min.CompareAndSwap(m, om) {
				break
			}
		}
	}
	if om := o.max.Load(); om >= 0 {
		for {
			m := h.max.Load()
			if om <= m || h.max.CompareAndSwap(m, om) {
				break
			}
		}
	}
}

// minNS returns the exact minimum recorded value, or 0 when empty.
func (h *Hist) minNS() int64 {
	if m := h.min.Load(); m != math.MaxInt64 {
		return m
	}
	return 0
}

// maxNS returns the exact maximum recorded value, or 0 when empty.
func (h *Hist) maxNS() int64 {
	if m := h.max.Load(); m >= 0 {
		return m
	}
	return 0
}

// meanNS returns the exact mean of recorded values, or 0 when empty.
func (h *Hist) meanNS() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// quantile returns the latency (ns) at quantile q in [0, 1]: the
// smallest bucket value v such that at least ceil(q*count) recorded
// values are <= its bucket. q <= 0 returns the exact minimum, q >= 1
// the exact maximum; interior quantiles carry the bucket's relative
// error (<= 1/32). Returns 0 for an empty histogram.
func (h *Hist) quantile(q float64) int64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return h.minNS()
	}
	if q >= 1 {
		return h.maxNS()
	}
	rank := uint64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= rank {
			mid := bucketMid(i)
			// Clamp to the exact extrema: the first/last occupied
			// bucket's midpoint can overshoot them.
			if mx := h.maxNS(); mid > mx {
				mid = mx
			}
			if mn := h.minNS(); mid < mn {
				mid = mn
			}
			return mid
		}
	}
	return h.maxNS() // racing writers; fall back to the exact max
}

// Summary is the standard percentile digest of a histogram, in
// microseconds (floats, so sub-microsecond latencies stay visible).
// It is the unit both a dbpload report and GET /v1/stats carry.
type Summary struct {
	Count  uint64  `json:"count"`
	MeanUS float64 `json:"mean_us"`
	P50US  float64 `json:"p50_us"`
	P90US  float64 `json:"p90_us"`
	P99US  float64 `json:"p99_us"`
	P999US float64 `json:"p999_us"`
	MaxUS  float64 `json:"max_us"`
}

// Summary digests the histogram into its reporting form.
func (h *Hist) Summary() Summary {
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	return Summary{
		Count:  h.count.Load(),
		MeanUS: h.meanNS() / 1e3,
		P50US:  us(h.quantile(0.50)),
		P90US:  us(h.quantile(0.90)),
		P99US:  us(h.quantile(0.99)),
		P999US: us(h.quantile(0.999)),
		MaxUS:  us(h.maxNS()),
	}
}
