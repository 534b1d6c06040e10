// Package bins models the bins (cloud servers) of the MinUsageTime DBP
// problem. A bin opens when it receives its first item and closes when its
// last item departs (paper Sec. III-B); its usage period is the half-open
// interval from opening to closing, and the objective of the problem is the
// total length of all usage periods.
//
// A bin holds live state only: its level, its resident items and its usage
// period. What a batch run needs afterwards — which items each server was
// given — is recorded by its caller (packing.Result), not by the bin.
package bins

import (
	"fmt"
	"math"

	"dbp/internal/item"
)

// Eps is the tolerance used for capacity admission checks: an item fits if
// level + size <= capacity + Eps. It absorbs float64 accumulation error on
// instances whose sizes are not exactly representable; it is far below the
// size granularity of every workload in this repository.
const Eps = 1e-9

// Bin is a single server of given capacity (1.0 per dimension in the
// paper's normalization). Create bins with openBin.
type Bin struct {
	// Index is the bin's position in the temporal order of openings,
	// starting at 0. First Fit's "earliest opened" rule is "lowest Index".
	Index int
	// Capacity is the per-dimension capacity; the paper uses 1.
	Capacity float64
	// LingerWhenEmpty keeps the bin open (empty, "lingering") when its
	// last item departs instead of closing it — the keep-alive server
	// model. The owner (bins.Ledger) is then responsible for closing the
	// bin via Close once the keep-alive budget expires.
	LingerWhenEmpty bool

	openedAt   float64
	closedAt   float64 // NaN while open
	emptySince float64 // NaN while occupied; set when the bin empties but lingers (keep-alive)
	level      []float64
	level1     [1]float64 // backs level at d = 1: a scalar bin is one allocation
	// resident holds the items in the bin in no particular order: a
	// removal moves the last one into the hole. A ledger knows each item's
	// position; a bare bin scans for it.
	resident []item.Item
	ledger   *Ledger // the ledger that opened or restored the bin
	// slot is the bin's position in its ledger's Index while it is open
	// there; the index maintains it (compaction moves it).
	slot int
}

// openBin creates a new open bin with the given index and capacity at time t,
// supporting dim resource dimensions (1 for the paper's scalar problem).
func openBin(index int, capacity float64, dim int, t float64) *Bin {
	if dim < 1 {
		panic("bins: dim must be >= 1")
	}
	if capacity <= 0 {
		panic("bins: capacity must be positive")
	}
	b := &Bin{
		Index:      index,
		Capacity:   capacity,
		openedAt:   t,
		closedAt:   math.NaN(),
		emptySince: math.NaN(),
	}
	b.level = b.level1[:]
	if dim > 1 {
		b.level = make([]float64, dim)
	}
	return b
}

// IsOpen reports whether the bin still holds at least one item (or was just
// opened and has not yet closed).
func (b *Bin) IsOpen() bool { return math.IsNaN(b.closedAt) }

// OpenedAt returns the opening time of the bin.
func (b *Bin) OpenedAt() float64 { return b.openedAt }

// ClosedAt returns the closing time, panicking if the bin is still open.
func (b *Bin) ClosedAt() float64 {
	if b.IsOpen() {
		panic(fmt.Sprintf("bins: bin %d still open", b.Index))
	}
	return b.closedAt
}

// Usage returns |U_k|, the bin's contribution to the objective, for a
// closed bin.
func (b *Bin) Usage() float64 { return b.ClosedAt() - b.openedAt }

// Level returns the current scalar level of the bin: the total size of
// active items (first dimension for vector bins, which is the max-component
// convention used by size-classifying algorithms).
func (b *Bin) Level() float64 {
	if len(b.level) == 0 {
		return 0
	}
	return b.level[0]
}

// Gap returns the remaining scalar capacity, Capacity - Level.
func (b *Bin) Gap() float64 { return b.Capacity - b.Level() }

// GapAt returns the remaining capacity in dimension d, Capacity -
// level[d]. GapAt(0) == Gap().
func (b *Bin) GapAt(d int) float64 { return b.Capacity - b.level[d] }

// MinGap returns the smallest per-dimension gap — the remaining capacity
// of the bin's dominant (most loaded) resource, the scalarization the
// dominant-resource Worst Fit family maximizes. For 1-D bins it equals
// Gap().
func (b *Bin) MinGap() float64 {
	min := b.Capacity - b.level[0]
	for _, lv := range b.level[1:] {
		if g := b.Capacity - lv; g < min {
			min = g
		}
	}
	return min
}

// TotalGap returns the sum of the per-dimension gaps, added from 0.0 in
// dimension order — the total-residual scalarization vector Best Fit
// minimizes. It is the one scoring expression both engines read, as
// FitsDemand is the one admission test. For 1-D bins it equals Gap() bit
// for bit (0.0 + g == g).
func (b *Bin) TotalGap() float64 {
	sum := 0.0
	for _, lv := range b.level {
		sum += b.Capacity - lv
	}
	return sum
}

// NumActive returns the number of items currently in the bin.
func (b *Bin) NumActive() int { return len(b.resident) }

// Dim returns the number of resource dimensions of the bin.
func (b *Bin) Dim() int { return len(b.level) }

// Fits reports whether the item can be placed without exceeding capacity in
// any dimension (with Eps tolerance).
func (b *Bin) Fits(it item.Item) bool {
	return b.IsOpen() && b.FitsDemand(it.SizeVec())
}

// FitsDemand reports whether a raw demand vector can be placed without
// exceeding capacity in any dimension (with Eps tolerance). It is the
// single admission comparison every vector placement path shares — the
// linear reference scans, the indexed engine's pruned tree descent, and
// Fits above — so the engines cannot disagree on a borderline demand.
func (b *Bin) FitsDemand(v []float64) bool {
	if len(v) != len(b.level) {
		return false
	}
	for d := range v {
		if b.level[d]+v[d] > b.Capacity+Eps {
			return false
		}
	}
	return true
}

// Place adds the item to the bin at time t. It panics if the item does not
// fit, if the bin is closed, if t precedes the opening time, or if the
// item is already in the bin: all of these indicate simulator bugs, not
// recoverable conditions.
func (b *Bin) Place(it item.Item, t float64) {
	if b.find(it.ID) >= 0 {
		panic(fmt.Sprintf("bins: item %d already in bin %d", it.ID, b.Index))
	}
	b.place(it, t)
}

// place is Place without the duplicate check, which a ledger makes across
// its whole fleet instead; it returns the item's position in resident.
func (b *Bin) place(it item.Item, t float64) int {
	if !b.Fits(it) {
		panic(fmt.Sprintf("bins: item %v does not fit in bin %d (level %g)", it, b.Index, b.Level()))
	}
	if t < b.openedAt {
		panic(fmt.Sprintf("bins: placement at %g before bin %d opened at %g", t, b.Index, b.openedAt))
	}
	v := it.SizeVec()
	for d := range v {
		b.level[d] += v[d]
	}
	b.resident = append(b.resident, it)
	b.emptySince = math.NaN() // a lingering bin is back in service
	return len(b.resident) - 1
}

// find returns the item's position in resident, or -1.
func (b *Bin) find(id item.ID) int {
	for i := range b.resident {
		if b.resident[i].ID == id {
			return i
		}
	}
	return -1
}

// Remove takes the item out of the bin at time t. If the bin becomes
// empty it closes at t. Removing an absent item panics.
func (b *Bin) Remove(id item.ID, t float64) {
	i := b.find(id)
	if i < 0 {
		panic(fmt.Sprintf("bins: item %d not in bin %d", id, b.Index))
	}
	b.removeAt(i, t)
}

// removeAt is Remove for the item at position i of resident. The last
// item moves into position i; its ledger fixes up where it is.
func (b *Bin) removeAt(i int, t float64) {
	v := b.resident[i].SizeVec()
	for d := range v {
		b.level[d] -= v[d]
		if b.level[d] < 0 {
			// Clamp accumulated float error; a materially negative level
			// would have been caught by the capacity invariant tests.
			b.level[d] = 0
		}
	}
	last := len(b.resident) - 1
	b.resident[i] = b.resident[last]
	b.resident[last] = item.Item{} // drop its Sizes for the collector
	b.resident = b.resident[:last]
	if c := cap(b.resident); last > 0 && c >= 8 && 3*last <= c {
		// Halve a slice filled to a third or less: its capacity follows what
		// the bin holds, not the most it (or, through the free list, any
		// closed bin) ever held.
		b.resident = append(make([]item.Item, 0, c/2), b.resident...)
	}
	if last == 0 {
		if b.LingerWhenEmpty {
			b.emptySince = t
		} else {
			b.closedAt = t
		}
	}
}

// Lingering reports whether the bin is open but empty (keep-alive mode).
func (b *Bin) Lingering() bool { return b.IsOpen() && !math.IsNaN(b.emptySince) }

// EmptySince returns the time the bin last became empty; it panics if the
// bin is not lingering.
func (b *Bin) EmptySince() float64 {
	if !b.Lingering() {
		panic(fmt.Sprintf("bins: bin %d is not lingering", b.Index))
	}
	return b.emptySince
}

// Close shuts a lingering bin at time t (>= the time it emptied). It
// panics if the bin is occupied or already closed.
func (b *Bin) Close(t float64) {
	if !b.Lingering() {
		panic(fmt.Sprintf("bins: Close on non-lingering bin %d", b.Index))
	}
	if t < b.emptySince {
		panic(fmt.Sprintf("bins: Close(%g) before bin %d emptied at %g", t, b.Index, b.emptySince))
	}
	b.closedAt = t
	b.emptySince = math.NaN()
}

// ActiveItems returns the items currently in the bin (unordered).
func (b *Bin) ActiveItems() item.List {
	out := make(item.List, len(b.resident))
	copy(out, b.resident)
	return out
}

// String renders the bin for diagnostics.
func (b *Bin) String() string {
	state := "open"
	if !b.IsOpen() {
		state = fmt.Sprintf("closed@%g", b.closedAt)
	}
	return fmt.Sprintf("bin{#%d level=%g n=%d opened@%g %s}", b.Index, b.Level(), len(b.resident), b.openedAt, state)
}
