package bins

import (
	"fmt"
	"math"
	"slices"
)

// levelBlock is the capacity of a levelList block: a full block's memmove
// is 1.5 KiB, and 3,400 bins under random churn fill about 120 blocks.
const levelBlock = 64

// levelList is the open bins sorted by (key, index), where key is a
// scalarization of the bin's gap vector: MinGap (its Gap on a scalar
// fleet) for the emptiest-first walk of the Worst Fit and Almost Worst Fit
// queries, or TotalGap for the Best Fit walk.
//
// The sorted sequence is cut into blocks of at most levelBlock entries;
// blocks, the spine, holds them in order. A lookup binary-searches the
// block tails and then one block; an insert or a delete moves part of one
// block by one entry. A full block splits into two halves before it takes
// an entry, and an empty one leaves the spine. Each operation is therefore
// O(log B + levelBlock), and a walk steps through contiguous entries.
//
// Keys are exact: two bins compare by key first and opening index second,
// with no epsilon fuzz, so every query has a unique, order-independent
// answer — the property the cross-engine equivalence suite relies on. A
// bin is filed under the exact key it had when it was last filed, kept by
// its slot in keys: a level change deletes that entry and files the bin
// again under its new key.
//
// No entry past a block's length, and no block past the spine's length,
// holds a bin: a vacated entry is zeroed, and an emptied block waits,
// zeroed, past the spine's length for the next split, until compact
// allocates the spine afresh.
type levelList struct {
	key    func(*Bin) float64 // the scalarization: (*Bin).MinGap or (*Bin).TotalGap
	blocks [][]levelEntry     // non-empty, each of capacity levelBlock, in (key, index) order
	keys   []float64          // by slot, the key the bin is filed under; stale where it has closed
}

type levelEntry struct {
	key float64
	idx int // bin.Index, beside key so that comparisons stay inside the entry
	bin *Bin
}

// levelPos is an entry's position: offset e of block b. The position past
// the last entry is {len(blocks), 0}.
type levelPos struct{ b, e int }

// newLevelList files every bin in the index's slots (nil where the bin has
// closed) under the given scalarization.
func newLevelList(key func(*Bin) float64, slots []*Bin) *levelList {
	t := &levelList{key: key, keys: make([]float64, len(slots))}
	for i, b := range slots {
		if b != nil {
			t.keys[i] = key(b)
			t.insert(levelEntry{t.keys[i], b.Index, b})
		}
	}
	return t
}

// add files a bin that has just taken the next slot.
func (t *levelList) add(b *Bin) {
	k := t.key(b)
	t.keys = append(t.keys, k)
	t.insert(levelEntry{k, b.Index, b})
}

// refresh re-files the bin if its key moved. The entry to delete is the
// one under the key kept for its slot (the exact float filed last time).
func (t *levelList) refresh(b *Bin) {
	if k := t.key(b); k != t.keys[b.slot] {
		t.delete(t.keys[b.slot], b.Index)
		t.keys[b.slot] = k
		t.insert(levelEntry{k, b.Index, b})
	}
}

// drop removes the entry of a bin that closed.
func (t *levelList) drop(b *Bin) { t.delete(t.keys[b.slot], b.Index) }

// compact keeps the keys of the open slots, in slot order, as Index.compact
// renumbers them, and gives up the emptied blocks the spine kept.
func (t *levelList) compact(slots []*Bin, live int) {
	kept := make([]float64, 0, live)
	for i, b := range slots {
		if b != nil {
			kept = append(kept, t.keys[i])
		}
	}
	t.keys = kept
	t.blocks = slices.Clone(t.blocks)
}

// keyLess orders keys lexicographically by (key, index).
func keyLess(k1 float64, i1 int, k2 float64, i2 int) bool {
	return k1 < k2 || (k1 == k2 && i1 < i2)
}

// ceil returns the position of the smallest entry >= (key, idx), or the
// end. An index of math.MinInt finds the first entry whose key is >= key.
func (t *levelList) ceil(key float64, idx int) levelPos {
	lo, hi := 0, len(t.blocks)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		blk := t.blocks[m]
		if x := &blk[len(blk)-1]; keyLess(x.key, x.idx, key, idx) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == len(t.blocks) {
		return levelPos{lo, 0}
	}
	blk := t.blocks[lo]
	e, hi := 0, len(blk)-1 // the tail is not less, so the answer is in blk
	for e < hi {
		m := int(uint(e+hi) >> 1)
		if x := &blk[m]; keyLess(x.key, x.idx, key, idx) {
			e = m + 1
		} else {
			hi = m
		}
	}
	return levelPos{lo, e}
}

// floorBelow returns the position of the largest entry whose key is
// strictly below the given one — the tail of the next-lower key group —
// and false if there is none.
func (t *levelList) floorBelow(key float64) (levelPos, bool) {
	return t.prev(t.ceil(key, math.MinInt))
}

// max returns the position of the largest entry, and false if the list is
// empty.
func (t *levelList) max() (levelPos, bool) {
	return t.prev(levelPos{len(t.blocks), 0})
}

// at returns the entry at a position short of the end.
func (t *levelList) at(p levelPos) *levelEntry { return &t.blocks[p.b][p.e] }

// next returns the position after p, which is short of the end.
func (t *levelList) next(p levelPos) levelPos {
	if p.e++; p.e == len(t.blocks[p.b]) {
		return levelPos{p.b + 1, 0}
	}
	return p
}

// prev returns the position before p, and false if p is the first.
func (t *levelList) prev(p levelPos) (levelPos, bool) {
	switch {
	case p.e > 0:
		return levelPos{p.b, p.e - 1}, true
	case p.b > 0:
		return levelPos{p.b - 1, len(t.blocks[p.b-1]) - 1}, true
	}
	return p, false
}

// insert files an entry, which must not already be present.
func (t *levelList) insert(x levelEntry) {
	p := t.ceil(x.key, x.idx)
	if p.b == len(t.blocks) { // above every entry: the last block's end
		if p.b == 0 {
			t.grow(0)
		} else {
			p.b--
		}
		p.e = len(t.blocks[p.b])
	}
	if len(t.blocks[p.b]) == levelBlock {
		const half = levelBlock / 2
		full := t.blocks[p.b]
		upper := append(t.grow(p.b+1), full[half:]...)
		t.blocks[p.b+1] = upper
		clear(full[half:])
		t.blocks[p.b] = full[:half]
		if p.e > half {
			p = levelPos{p.b + 1, p.e - half}
		}
	}
	blk := t.blocks[p.b]
	blk = blk[:len(blk)+1]
	copy(blk[p.e+1:], blk[p.e:])
	blk[p.e] = x
	t.blocks[p.b] = blk
}

// grow puts an empty block into the spine at position i and returns it.
// The block is one that emptied earlier, if the spine keeps one past its
// length, so that a steady fleet's splits allocate nothing.
func (t *levelList) grow(i int) []levelEntry {
	n := len(t.blocks)
	var blk []levelEntry
	if n < cap(t.blocks) {
		blk = t.blocks[:n+1][n]
	}
	if blk == nil {
		blk = make([]levelEntry, 0, levelBlock)
	}
	t.blocks = append(t.blocks, nil)
	copy(t.blocks[i+1:], t.blocks[i:n])
	t.blocks[i] = blk
	return blk
}

// delete removes the entry (key, idx); a missing entry is a coherence bug.
// A block it empties moves, zeroed, past the spine's length.
func (t *levelList) delete(key float64, idx int) {
	p := t.ceil(key, idx)
	if p.b == len(t.blocks) || t.at(p).key != key || t.at(p).idx != idx {
		panic("bins: level list missing a key it should hold")
	}
	blk := t.blocks[p.b]
	copy(blk[p.e:], blk[p.e+1:])
	blk[len(blk)-1] = levelEntry{}
	blk = blk[:len(blk)-1]
	if len(blk) > 0 {
		t.blocks[p.b] = blk
		return
	}
	n := len(t.blocks)
	copy(t.blocks[p.b:], t.blocks[p.b+1:])
	t.blocks[n-1] = blk
	t.blocks = t.blocks[:n-1]
}

// firstFitting walks the entries whose key is >= lo upward in (key, index)
// order and returns the first whose bin fits the demand, or nil.
func (t *levelList) firstFitting(lo float64, sizes []float64) *Bin {
	for p := t.ceil(lo, math.MinInt); p.b < len(t.blocks); p = (levelPos{p.b + 1, 0}) {
		for _, x := range t.blocks[p.b][p.e:] {
			if x.bin.FitsDemand(sizes) {
				return x.bin
			}
		}
	}
	return nil
}

// check verifies the list against the index's slots, open of them in use
// (invariant checks; O(B log B)): every block non-empty and within its
// capacity, the whole sequence strictly ordered, each open slot's bin
// filed under its kept key, which is its key now, and one entry per open
// bin.
func (t *levelList) check(slots []*Bin, open int) error {
	if len(t.keys) != len(slots) {
		return fmt.Errorf("%d filed keys for %d slots", len(t.keys), len(slots))
	}
	var last *levelEntry
	entries := 0
	for i, blk := range t.blocks {
		if len(blk) == 0 || cap(blk) != levelBlock {
			return fmt.Errorf("block %d holds %d entries in a capacity of %d", i, len(blk), cap(blk))
		}
		for e := range blk {
			if last != nil && !keyLess(last.key, last.idx, blk[e].key, blk[e].idx) {
				return fmt.Errorf("block %d: (%g, %d) follows (%g, %d)", i, blk[e].key, blk[e].idx, last.key, last.idx)
			}
			last = &blk[e]
		}
		entries += len(blk)
	}
	for i, b := range slots {
		if b == nil {
			continue
		}
		k := t.keys[i]
		p := t.ceil(k, b.Index)
		if k != t.key(b) || p.b == len(t.blocks) || t.at(p).bin != b || t.at(p).key != k {
			return fmt.Errorf("open bin %d is not filed under (%g, %d)", b.Index, t.key(b), b.Index)
		}
	}
	if entries != open {
		return fmt.Errorf("%d entries for %d open bins", entries, open)
	}
	return nil
}
