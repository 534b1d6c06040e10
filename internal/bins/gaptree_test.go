package bins

import (
	"math"
	"slices"
	"testing"

	"dbp/internal/item"
)

// TestGapKeyOrder holds the gap tree's key, item.OrderKey, to the float
// comparisons it replaces on every pair of a set with all the float
// classes in it: for non-NaN a and b, key(a) < key(b) exactly when a < b
// and key(a) == key(b) exactly when a == b (so -0 and +0 share a key).
// NaN's key is the tombstone, strictly below every other key, -Inf's
// included.
func TestGapKeyOrder(t *testing.T) {
	sub := math.SmallestNonzeroFloat64
	minNormal := 0x1p-1022
	xs := []float64{math.Inf(-1), -math.MaxFloat64, -1, -Eps, -minNormal, -minNormal / 2, -sub,
		math.Copysign(0, -1), 0, sub, minNormal / 2, math.Nextafter(minNormal, 0), minNormal, Eps,
		math.Nextafter(1, 0), 1, math.Nextafter(1, 2), math.MaxFloat64, math.Inf(1)}
	for _, a := range xs {
		ka := item.OrderKey(a)
		if ka <= tombstone {
			t.Errorf("key(%g) = %#x, not above the tombstone %#x", a, ka, tombstone)
		}
		for _, b := range xs {
			kb := item.OrderKey(b)
			if (ka < kb) != (a < b) || (ka == kb) != (a == b) {
				t.Errorf("key(%g) = %#x vs key(%g) = %#x: ordered %v, equal %v; the floats %v, %v",
					a, ka, b, kb, ka < kb, ka == kb, a < b, a == b)
			}
		}
	}
	for _, nan := range []float64{math.NaN(), -math.NaN(), math.Float64frombits(0x7FF0000000000001)} {
		if k := item.OrderKey(nan); k != tombstone {
			t.Errorf("key(NaN %#x) = %#x, want the tombstone %#x", math.Float64bits(nan), k, tombstone)
		}
	}
}

// TestFirstFittingUnorderableNeeds pins FirstFitting to linearFirst at
// the two needs no ordinary threshold stands for: no gap is >= NaN, so
// NaN finds nothing, and every gap is >= -Inf, so -Inf finds the first
// open bin, also when the first slot is a closed one. The fleet is four
// bins of gap 0.5; closing bin 0 leaves its slot tombstoned (one closed
// slot among four is not compacted).
func TestFirstFittingUnorderableNeeds(t *testing.T) {
	g := NewLedger(1, 1)
	g.EnableIndex()
	for i := 1; i <= 4; i++ {
		g.OpenNew(item.Item{ID: item.ID(i), Size: 0.5, Arrival: 0, Departure: math.Inf(1)}, 0)
	}
	ix := g.Index()
	check := func(when string) {
		t.Helper()
		for _, need := range []float64{math.NaN(), math.Inf(-1)} {
			if got, ref := ix.FirstFitting(need), linearFirst(g.OpenBins(), need); got != ref {
				t.Errorf("%s: FirstFitting(%g) = bin %d, linear %d", when, need, binIdx(got), binIdx(ref))
			}
		}
	}
	check("four open bins")
	g.Remove(1, 1)
	if closed := len(ix.bins) - ix.live; closed != 1 {
		t.Fatalf("the index holds %d closed slots, want 1", closed)
	}
	check("bin 0 closed")
	if got := ix.FirstFitting(math.Inf(-1)); binIdx(got) != 1 {
		t.Errorf("FirstFitting(-Inf) = bin %d, want the first open bin 1", binIdx(got))
	}
}

// gapFuzzSizes are the demand components FuzzGapTree places: dyadic
// sizes, whose levels are exact, so bins fill to a gap of exactly 0, and
// sizes a little over a dyadic one, two of which fill a bin past its
// capacity by up to Eps (a slightly negative gap, which Fits admits).
var gapFuzzSizes = [...]float64{1, 1.0 / 2, 1.0 / 4, 3.0 / 4, 1.0 / 8, 3.0 / 8, 1.0 / 16, 5.0 / 16,
	1.0/2 + Eps/2, 1.0/4 + Eps/3, 1.0/2 + Eps/4, Eps / 2}

// FuzzGapTree drives an indexed ledger at d ∈ {1, 2, 3} through random
// opens, placements, removals, closures of a whole bin and runs of
// closures that compact the index's slots, and after every step holds
// FirstFittingVec, LastFittingVec and FirstFitting to their linear scans
// and the index to CheckInvariants (checkCoherent rebuilds the gap tree
// and compares every key). The queries are at a live bin's gaps, exactly
// and at ±Eps and ±2·Eps, at -0 and +0 (a gap is never -0: a difference
// of equal floats is +0, so -0 meets the zero gaps of full bins as a
// threshold), and at NaN, -Inf and +Inf, alone and as one component of a
// vector demand. Each op is two bytes: a kind and an argument.
func FuzzGapTree(f *testing.F) {
	f.Add(byte(0), []byte{0, 0, 1, 1, 1, 8, 1, 8, 0, 2, 3, 0, 0, 9, 2, 0, 1, 4, 4, 0, 0, 3})
	f.Add(byte(1), []byte{0, 1, 0, 2, 0, 3, 0, 4, 1, 8, 1, 17, 3, 1, 4, 1, 0, 5, 1, 2, 2, 3, 4, 0})
	f.Add(byte(2), []byte{0, 8, 1, 8, 0, 0, 0, 6, 0, 7, 1, 11, 4, 0, 2, 1, 3, 0, 0, 1, 1, 9})
	f.Add(byte(0), []byte{0, 6, 0, 6, 0, 6, 0, 6, 0, 6, 0, 6, 0, 6, 0, 6, 4, 0, 4, 1, 3, 2, 0, 11})
	f.Fuzz(func(t *testing.T, dimSel byte, ops []byte) {
		if len(ops) > 600 {
			ops = ops[:600]
		}
		dim := 1 + int(dimSel%3)
		g := NewLedger(1, dim)
		g.EnableIndex()
		ix := g.Index()
		next := item.ID(1)
		newItem := func(arg byte) item.Item {
			it := item.Item{ID: next, Arrival: 0, Departure: math.Inf(1)}
			next++
			if dim == 1 {
				it.Size = gapFuzzSizes[int(arg)%len(gapFuzzSizes)]
				return it
			}
			it.Sizes = make([]float64, dim)
			for d := range it.Sizes {
				it.Sizes[d] = gapFuzzSizes[(int(arg)+5*d)%len(gapFuzzSizes)]
			}
			it.Size = slices.Max(it.Sizes)
			return it
		}
		closeBin := func(b *Bin) {
			for _, it := range b.ActiveItems() {
				g.Remove(it.ID, 0)
			}
		}
		for k := 0; k+1 < len(ops); k += 2 {
			kind, arg := ops[k]%5, ops[k+1]
			open := g.OpenBins()
			switch {
			case kind == 0 || len(open) == 0:
				g.OpenNew(newItem(arg), 0)
			case kind == 1: // into the chosen bin, else the first that fits
				it := newItem(arg / 8)
				b := open[int(arg)%len(open)]
				if !b.Fits(it) {
					b = linearFirstFits(open, it)
				}
				if b == nil {
					g.OpenNew(it, 0)
				} else {
					g.PlaceIn(b, it, 0)
				}
			case kind == 2:
				b := open[int(arg)%len(open)]
				resident := b.ActiveItems()
				g.Remove(resident[int(arg/8)%len(resident)].ID, 0)
			case kind == 3:
				closeBin(open[int(arg)%len(open)])
			default: // close every other bin: the closed slots come to outnumber the open ones
				for i, b := range slices.Clone(open) {
					if i%2 == int(arg%2) {
						closeBin(b)
					}
				}
			}
			if err := g.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", k/2, err)
			}
			open = g.OpenBins()
			needs := []float64{math.Copysign(0, -1), 0, math.NaN(), math.Inf(-1), math.Inf(1)}
			if len(open) > 0 {
				b := open[int(arg)%len(open)]
				for _, delta := range []float64{-2 * Eps, -Eps, 0, Eps, 2 * Eps} {
					needs = append(needs, b.GapAt(0)+delta)
					sizes := make([]float64, dim)
					for d := range sizes {
						sizes[d] = b.GapAt(d) + delta
					}
					checkPositional(t, ix, open, sizes)
					for _, odd := range []float64{math.NaN(), math.Inf(-1)} {
						sizes[int(arg)%dim] = odd
						checkPositional(t, ix, open, sizes)
					}
				}
			}
			for _, need := range needs {
				if got, ref := ix.FirstFitting(need), linearFirst(open, need); got != ref {
					t.Fatalf("op %d, d=%d: FirstFitting(%g) = bin %d, linear %d", k/2, dim, need, binIdx(got), binIdx(ref))
				}
				sizes := make([]float64, dim)
				for d := range sizes {
					sizes[d] = need
				}
				checkPositional(t, ix, open, sizes)
			}
		}
	})
}

// checkPositional holds FirstFittingVec and LastFittingVec to the first
// and the last open bin that FitsDemand admits.
func checkPositional(t *testing.T, ix *Index, open []*Bin, sizes []float64) {
	t.Helper()
	var first, last *Bin
	for _, b := range open {
		if b.FitsDemand(sizes) {
			if first == nil {
				first = b
			}
			last = b
		}
	}
	if got := ix.FirstFittingVec(sizes); got != first {
		t.Fatalf("FirstFittingVec(%v) = bin %d, linear %d", sizes, binIdx(got), binIdx(first))
	}
	if got := ix.LastFittingVec(sizes); got != last {
		t.Fatalf("LastFittingVec(%v) = bin %d, linear %d", sizes, binIdx(got), binIdx(last))
	}
}
