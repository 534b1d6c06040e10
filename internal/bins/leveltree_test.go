package bins

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// levelModel is the reference a levelList is held to: the open bins in a
// plain slice, sorted by (Gap, Index) on every read.
type levelModel struct {
	slots []*Bin // as the index keeps them: by slot, nil where closed
	live  int
}

func (m *levelModel) sorted() []*Bin {
	var s []*Bin
	for _, b := range m.slots {
		if b != nil {
			s = append(s, b)
		}
	}
	slices.SortFunc(s, func(a, b *Bin) int {
		if keyLess(a.Gap(), a.Index, b.Gap(), b.Index) {
			return -1
		}
		return 1
	})
	return s
}

// rank is a position's offset in the whole sequence.
func (t *levelList) rank(p levelPos) int {
	r := p.e
	for _, blk := range t.blocks[:p.b] {
		r += len(blk)
	}
	return r
}

// TestLevelListMatchesSortedSlice drives a levelList keyed by Gap with
// seeded random add, refresh, drop and compact operations, the way Index
// does, and after each one holds its entries, its invariants (check) and
// the answers of ceil, floorBelow, max and firstFitting to a sorted slice
// of the open bins. Gaps lie on a grid of 1/8 or 1/64, so equal keys are
// common and must order by index; the fleet grows to a few hundred bins
// and drains to none, so blocks split, and the first, a middle and the
// last block each empty. The test counts the answers that cross a block
// boundary and fails if any kind never occurred.
func TestLevelListMatchesSortedSlice(t *testing.T) {
	var crossed struct{ ceil, floor, max, fit, groups int }
	var emptied [3]int // first, middle, last block
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		grid := []float64{8, 64}[seed%2]
		gap := func() float64 { return float64(rng.Intn(int(grid)+1)) / grid }
		m := &levelModel{}
		l := newLevelList((*Bin).Gap, nil)
		opened := 0
		for op := 0; op < 4000; op++ {
			growing := op < 2000
			open := m.sorted()
			switch r := rng.Float64(); {
			case len(open) == 0 || (growing && r < 0.45) || (!growing && r < 0.2):
				b := openBin(opened, 1, 1, 0)
				opened++
				b.level[0] = 1 - gap()
				b.slot = len(m.slots)
				m.slots = append(m.slots, b)
				m.live++
				l.add(b)
			case (growing && r < 0.75) || (!growing && r < 0.5):
				b := open[rng.Intn(len(open))]
				b.level[0] = 1 - gap()
				l.refresh(b)
			default:
				b := open[rng.Intn(len(open))]
				p := l.ceil(b.Gap(), b.Index)
				if len(l.blocks[p.b]) == 1 {
					switch p.b {
					case 0:
						emptied[0]++
					case len(l.blocks) - 1:
						emptied[2]++
					default:
						emptied[1]++
					}
				}
				l.drop(b)
				m.slots[b.slot] = nil
				m.live--
				if len(m.slots)-m.live > m.live {
					l.compact(m.slots, m.live)
					kept := m.slots[:0]
					for _, b := range m.slots {
						if b != nil {
							b.slot = len(kept)
							kept = append(kept, b)
						}
					}
					m.slots = kept
				}
			}
			if err := l.check(m.slots, m.live); err != nil {
				t.Fatalf("seed %d, op %d: %v", seed, op, err)
			}
			open = m.sorted()
			var got []*Bin
			for _, blk := range l.blocks {
				for _, e := range blk {
					got = append(got, e.bin)
				}
			}
			if !slices.Equal(got, open) {
				t.Fatalf("seed %d, op %d: entries %v, want %v", seed, op, got, open)
			}
			for i := 1; i < len(open); i++ {
				if open[i].Gap() == open[i-1].Gap() && l.ceil(open[i].Gap(), open[i].Index).e == 0 {
					crossed.groups++ // a key group that spans a block boundary
				}
			}
			for q := 0; q < 4; q++ {
				key := gap()
				idx := rng.Intn(opened + 1)
				want := len(open)
				for i, b := range open {
					if !keyLess(b.Gap(), b.Index, key, idx) {
						want = i
						break
					}
				}
				if p := l.ceil(key, idx); l.rank(p) != want || (p.b == len(l.blocks)) != (want == len(open)) {
					t.Fatalf("seed %d, op %d: ceil(%g, %d) at rank %d, want %d", seed, op, key, idx, l.rank(p), want)
				} else if p.e == 0 && p.b > 0 && p.b < len(l.blocks) {
					crossed.ceil++
				}
				wantFloor := -1
				for i, b := range open {
					if b.Gap() < key {
						wantFloor = i
					}
				}
				p, ok := l.floorBelow(key)
				if ok != (wantFloor >= 0) || (ok && l.rank(p) != wantFloor) {
					t.Fatalf("seed %d, op %d: floorBelow(%g) at rank %d (%v), want %d", seed, op, key, l.rank(p), ok, wantFloor)
				} else if ok && p.e == len(l.blocks[p.b])-1 && p.b < len(l.blocks)-1 {
					crossed.floor++
				}
				if p, ok := l.max(); ok != (len(open) > 0) || (ok && l.at(p).bin != open[len(open)-1]) {
					t.Fatalf("seed %d, op %d: max is %v, want the last of %d", seed, op, ok, len(open))
				} else if ok && len(l.blocks) > 1 && p.e == 0 {
					crossed.max++
				}
				lo, size := gap(), gap()
				var wantFit *Bin
				for _, b := range open {
					if b.Gap() >= lo && b.FitsDemand([]float64{size}) {
						wantFit = b
						break
					}
				}
				if got := l.firstFitting(lo, []float64{size}); got != wantFit {
					t.Fatalf("seed %d, op %d: firstFitting(%g, %g) = %v, want %v", seed, op, lo, size, got, wantFit)
				} else if got != nil && l.ceil(lo, math.MinInt).b != l.ceil(got.Gap(), got.Index).b {
					crossed.fit++
				}
			}
		}
		for _, b := range m.slots {
			if b != nil {
				l.drop(b)
			}
		}
		if len(l.blocks) > 0 {
			t.Fatalf("seed %d: the drained list keeps %d blocks", seed, len(l.blocks))
		}
	}
	t.Logf("answers across a block boundary: %+v; blocks emptied first/middle/last: %v", crossed, emptied)
	if crossed.ceil == 0 || crossed.floor == 0 || crossed.max == 0 || crossed.fit == 0 || crossed.groups == 0 {
		t.Fatalf("some answer never crossed a block boundary: %+v", crossed)
	}
	if emptied[0] == 0 || emptied[1] == 0 || emptied[2] == 0 {
		t.Fatalf("blocks emptied first/middle/last %v, want each", emptied)
	}
}

// TestLevelListSplitsAtCapacity fills one block to exactly levelBlock
// entries, checks that it has not split, and that the next entry splits
// it into two halves, the new entry in the half its key belongs to; then
// it drains the lower block and checks that the spine keeps it, zeroed,
// for the next split.
func TestLevelListSplitsAtCapacity(t *testing.T) {
	l := newLevelList((*Bin).Gap, nil)
	bin := func(i int, gap float64) *Bin {
		b := openBin(i, 1, 1, 0)
		b.level[0] = 1 - gap
		b.slot = i
		return b
	}
	var bins []*Bin
	for i := 0; i < levelBlock; i++ {
		bins = append(bins, bin(i, 0.5)) // one key group, ordered by index
		l.add(bins[i])
	}
	if len(l.blocks) != 1 || len(l.blocks[0]) != levelBlock {
		t.Fatalf("%d entries fill %d blocks, want one full block", levelBlock, len(l.blocks))
	}
	bins = append(bins, bin(levelBlock, 0.25)) // sorts first
	l.add(bins[levelBlock])
	if len(l.blocks) != 2 || len(l.blocks[0]) != levelBlock/2+1 || len(l.blocks[1]) != levelBlock/2 {
		t.Fatalf("after a split: %d blocks, first of %d entries, want two of %d and %d", len(l.blocks), len(l.blocks[0]), levelBlock/2+1, levelBlock/2)
	}
	if err := l.check(bins, len(bins)); err != nil {
		t.Fatal(err)
	}
	for _, blk := range l.blocks {
		for _, e := range blk[len(blk):cap(blk)] {
			if e != (levelEntry{}) {
				t.Fatalf("a block keeps entry %+v past its length", e)
			}
		}
	}
	spare := l.blocks[0]
	for _, e := range slices.Clone(spare) {
		l.drop(e.bin)
		bins[e.bin.slot] = nil
	}
	if len(l.blocks) != 1 || cap(l.blocks) < 2 || &l.blocks[:2][1][:1][0] != &spare[:1][0] {
		t.Fatal("the emptied block does not wait past the spine's length")
	}
	if e := spare[:1][0]; e != (levelEntry{}) {
		t.Fatalf("the emptied block keeps entry %+v", e)
	}
	if err := l.check(bins, levelBlock/2); err != nil {
		t.Fatal(err)
	}
}
