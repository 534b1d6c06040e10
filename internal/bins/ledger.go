package bins

import (
	"fmt"
	"sort"

	"dbp/internal/item"
)

// Ledger tracks the currently open bins of a packing run, which bin each
// item lives in, and the running objective statistics (total usage time,
// maximum number of concurrently open bins — the classical DBP objective
// the paper contrasts with, Sec. II). It holds live state only: a closed
// bin leaves its usage in an accumulator and its index in a counter, and
// nothing in the ledger, its index or its expiry heap refers to it again,
// so memory and per-event cost follow the open fleet however long the run.
// A caller that needs the run's record afterwards (packing's batch runner)
// keeps it from what OpenNew, PlaceIn and Remove return.
//
// Each resident item is one entry in one idTable, location, which holds
// its bin and its position in the bin's resident slice. An event costs
// O(log B) in the number of open bins B:
//
//   - a placement is one table probe, plus an append to the bin's slice;
//   - an opening is a placement plus a Bin (at d = 1 its level is a field)
//     — its resident slice is one a closed bin left on the free list;
//   - a departure is one table probe and a backward shift, plus one probe
//     when another item moves into the vacated position; a bin that
//     closes leaves the open list by binary search and a memmove;
//   - a keep-alive expiry check is a peek at a min-heap of pending
//     closures, and each closure O(log B);
//   - the index, when enabled, updates only the structures a query has
//     built (see Index): per level change, one root-to-leaf path of the
//     gap tree and one entry in each built level list (MinGap, TotalGap)
//     whose key moved.
//
// The benchmark's bare-ledger replay of 1M zipfian events reads, from the
// first to the last decile of the script, 795 → 3370 ns/event while the
// ledger retained every closed bin, 538 → 562 once it released them (DESIGN.md §8 has all ten),
// 163 → 170 with one map entry per job and no level list for First Fit, and
// 194 → 180 with this table where the map read 251 → 228 on the same box.
type Ledger struct {
	capacity  float64
	dim       int
	keepAlive float64 // 0: close bins the moment they empty

	opened   int    // bins ever opened; the next bin's Index
	open     []*Bin // sorted by Index ascending (== opening order)
	location idTable
	// free holds the emptied resident slices of closed bins for the next
	// openings to reuse: a closed bin keeps none.
	free [][]item.Item
	// expiries holds the pending keep-alive closures (min by emptySince),
	// lazily invalidated: entries for revived bins are discarded when
	// popped rather than being searched for and deleted.
	expiries expiryHeap

	maxConcurrentOpen int
	closedUsage       float64

	// due is CloseExpired's reusable scratch for the entries expiring in
	// one call, so batching closures for canonical ordering stays
	// allocation-free on the steady-state path.
	due []expiryEntry

	// index, when enabled, is the policy-query index kept coherent by
	// every mutation below (see Index). Nil for owners that never issue
	// indexed queries (replay, the linear reference engine).
	index *Index
}

// NewLedger creates a ledger for bins of the given capacity and dimension.
func NewLedger(capacity float64, dim int) *Ledger {
	if dim < 1 {
		panic("bins: dim must be >= 1")
	}
	return &Ledger{
		capacity: capacity,
		dim:      dim,
		location: newIDTable(0),
	}
}

// NewLedgerKeepAlive creates a ledger whose bins linger open for
// keepAlive time units after emptying (the cloud keep-alive model: a
// server whose billed hour is already paid may as well stay up). The
// owner must call CloseExpired as simulation time advances and
// CloseAllLingering at the end.
func NewLedgerKeepAlive(capacity float64, dim int, keepAlive float64) *Ledger {
	if keepAlive < 0 {
		panic("bins: negative keep-alive")
	}
	g := NewLedger(capacity, dim)
	g.keepAlive = keepAlive
	return g
}

// KeepAlive returns the configured keep-alive duration (0 = none).
func (g *Ledger) KeepAlive() float64 { return g.keepAlive }

// EnableIndex turns on the policy-query index. Each of its structures is
// built by the first query that reads it and kept coherent by every
// mutation after that (see Index). It must be called before any bin is
// opened.
func (g *Ledger) EnableIndex() {
	if g.opened > 0 {
		panic("bins: EnableIndex on a ledger that already opened bins")
	}
	g.index = newIndex(g.dim)
}

// Index returns the policy-query index, or nil when not enabled.
func (g *Ledger) Index() *Index { return g.index }

// CloseExpired closes every lingering bin whose keep-alive budget has run
// out by time now (expiry at emptySince + keepAlive, half-open: a bin
// expiring exactly at now is closed and cannot serve an arrival at now).
// It returns the number of bins closed.
//
// The heap makes the no-expiry case — the overwhelmingly common one, as
// the simulator and the streaming dispatcher call CloseExpired on every
// event — a single peek, and each actual closure O(log B).
func (g *Ledger) CloseExpired(now float64) int {
	if len(g.expiries) == 0 || g.expiries[0].emptySince+g.keepAlive > now {
		return 0
	}
	// Collect every due closure first and process them in canonical
	// (emptySince, Index) order. The heap's order among equal emptySince
	// values depends on the order of past insertions — including stale
	// entries for revived bins — and the closed-usage accumulator's float
	// bits depend on summation order, so closing in heap-pop order would
	// make a ledger restored from a snapshot (whose heap holds only the
	// live entries) drift from an uninterrupted run by a few ULPs. The
	// canonical order depends on the live state alone.
	due := g.due[:0]
	for len(g.expiries) > 0 && g.expiries[0].emptySince+g.keepAlive <= now {
		e := g.expiries.pop()
		if !e.bin.Lingering() || e.bin.EmptySince() != e.emptySince {
			continue // stale: the bin was revived after this entry was pushed
		}
		due = append(due, e)
	}
	// Insertion sort: the batch is almost always tiny (usually one), and
	// sort.Slice would allocate on the per-event hot path.
	for i := 1; i < len(due); i++ {
		for j := i; j > 0 && (due[j].emptySince < due[j-1].emptySince ||
			(due[j].emptySince == due[j-1].emptySince && due[j].bin.Index < due[j-1].bin.Index)); j-- {
			due[j], due[j-1] = due[j-1], due[j]
		}
	}
	closed := 0
	for _, e := range due {
		b := e.bin
		// Re-check liveness: a bin that emptied, revived, and emptied
		// again at the same timestamp has two indistinguishable heap
		// entries, and the first closure must invalidate the second.
		if !b.Lingering() || b.EmptySince() != e.emptySince {
			continue
		}
		b.Close(e.emptySince + g.keepAlive)
		g.removeOpen(b)
		g.retire(b)
		closed++
	}
	for i := range due {
		due[i] = expiryEntry{} // release *Bin references
	}
	g.due = due[:0]
	return closed
}

// CloseAllLingering closes every remaining lingering bin at its natural
// expiry (emptySince + keepAlive); called when the workload drains.
func (g *Ledger) CloseAllLingering() {
	kept := g.open[:0]
	for _, b := range g.open {
		if b.Lingering() {
			b.Close(b.EmptySince() + g.keepAlive)
			g.retire(b)
		} else {
			kept = append(kept, b)
		}
	}
	g.open = kept
	g.expiries = nil
}

// Capacity returns the per-dimension bin capacity.
func (g *Ledger) Capacity() float64 { return g.capacity }

// Dim returns the resource dimensionality.
func (g *Ledger) Dim() int { return g.dim }

// OpenBins returns the currently open bins in opening order (ascending
// Index). The slice is shared; callers must not modify it.
func (g *Ledger) OpenBins() []*Bin { return g.open }

// NumOpen returns the number of currently open bins.
func (g *Ledger) NumOpen() int { return len(g.open) }

// NumOpened returns the total number of bins ever opened.
func (g *Ledger) NumOpened() int { return g.opened }

// MaxConcurrentOpen returns the peak number of simultaneously open bins
// observed so far (the classical DBP objective).
func (g *Ledger) MaxConcurrentOpen() int { return g.maxConcurrentOpen }

// ClosedUsage returns the exact usage accumulated by closed bins — the
// running float sum durable snapshots serialize verbatim, because
// recomputing it from the closed bins would re-order the additions and
// drift from the live accumulator by ULPs.
func (g *Ledger) ClosedUsage() float64 { return g.closedUsage }

// OpenNew opens a fresh bin at time t, places the item in it, and returns
// the bin.
func (g *Ledger) OpenNew(it item.Item, t float64) *Bin {
	return g.OpenNewCap(it, t, g.capacity)
}

// OpenNewCap opens a fresh bin with an explicit capacity (heterogeneous
// fleets open different tiers; homogeneous runs use OpenNew).
func (g *Ledger) OpenNewCap(it item.Item, t, capacity float64) *Bin {
	b := openBin(g.opened, capacity, g.dim, t)
	b.ledger = g
	b.LingerWhenEmpty = g.keepAlive > 0
	g.opened++
	g.open = append(g.open, b)
	if len(g.open) > g.maxConcurrentOpen {
		g.maxConcurrentOpen = len(g.open)
	}
	if n := len(g.free); n > 0 {
		b.resident = g.free[n-1]
		g.free[n-1] = nil
		g.free = g.free[:n-1]
	}
	g.place(b, it, t)
	if g.index != nil {
		g.index.observeOpen(b)
	}
	return b
}

// Owns reports whether the ledger opened or restored b.
func (g *Ledger) Owns(b *Bin) bool { return b.ledger == g }

// PlaceIn places the item into an existing open bin at time t.
func (g *Ledger) PlaceIn(b *Bin, it item.Item, t float64) {
	g.place(b, it, t)
	if g.index != nil {
		g.index.refresh(b)
	}
}

// place puts the item in the bin and records where. An item already
// resident anywhere in the fleet is a simulator bug: the table insert
// refuses it, and the ledger panics, unusable.
func (g *Ledger) place(b *Bin, it item.Item, t float64) {
	if !g.location.insert(idSlot{id: it.ID, bin: b, pos: b.place(it, t)}) {
		panic(fmt.Sprintf("bins: item %d placed in bin %d while already in a bin", it.ID, b.Index))
	}
}

// Remove removes the item from whichever bin holds it, closing the bin if
// it empties. It returns the bin the item was in and whether the bin
// closed. Removing an unknown item panics (simulator bug).
func (g *Ledger) Remove(id item.ID, t float64) (b *Bin, closed bool) {
	r, ok := g.location.remove(id)
	if !ok {
		panic(fmt.Sprintf("bins: item %d is in no bin", id))
	}
	b = r.bin
	b.removeAt(r.pos, t)
	if r.pos < len(b.resident) {
		// The bin's last item moved into the vacated position.
		g.location.get(b.resident[r.pos].ID).pos = r.pos
	}
	if b.IsOpen() {
		if b.Lingering() {
			// The bin just emptied into keep-alive; schedule its closure.
			g.expiries.push(expiryEntry{emptySince: b.EmptySince(), bin: b})
		}
		if g.index != nil {
			g.index.refresh(b)
		}
		return b, false
	}
	g.removeOpen(b)
	g.retire(b)
	return b, true
}

// retire drops a bin that has just closed, and is off the open list, from
// the rest of the live state: its usage goes to the accumulator, it leaves
// the index, and its emptied resident slice goes to the free list.
func (g *Ledger) retire(b *Bin) {
	g.closedUsage += b.Usage()
	if g.index != nil {
		g.index.remove(b)
	}
	if cap(b.resident) > 0 {
		g.free = append(g.free, b.resident)
	}
	b.resident = nil
}

// removeOpen deletes the bin from the Index-sorted open list: an O(log B)
// binary search for the slot, then a contiguous copy of the tail (a
// single memmove of pointers, far below the cost of the former
// pointer-equality scan on large fleets).
func (g *Ledger) removeOpen(b *Bin) {
	i := sort.Search(len(g.open), func(i int) bool { return g.open[i].Index >= b.Index })
	if i == len(g.open) || g.open[i] != b {
		panic(fmt.Sprintf("bins: bin %d not on the open list", b.Index))
	}
	copy(g.open[i:], g.open[i+1:])
	g.open[len(g.open)-1] = nil // release the tail slot's *Bin
	g.open = g.open[:len(g.open)-1]
}

// Locate returns the bin currently holding the item, or nil.
func (g *Ledger) Locate(id item.ID) *Bin { return g.location.get(id).bin }

// TotalUsage returns the accumulated usage time of all bins, counting open
// bins up to time now. After the simulation drains (all items departed),
// every bin is closed and now is ignored.
func (g *Ledger) TotalUsage(now float64) float64 {
	u := g.closedUsage
	for _, b := range g.open {
		u += now - b.OpenedAt()
	}
	return u
}

// CheckInvariants verifies structural invariants of the ledger and its
// bins; tests call it after every event. It returns an error describing
// the first violation found.
func (g *Ledger) CheckInvariants() error {
	prev, resident := -1, 0
	for _, b := range g.open {
		if !b.IsOpen() {
			return fmt.Errorf("closed bin %d on open list", b.Index)
		}
		if b.Index <= prev {
			return fmt.Errorf("open list out of order at bin %d", b.Index)
		}
		prev = b.Index
		// Every resident item is located here, at its own position; with
		// the count below, location holds nothing else.
		for i, it := range b.resident {
			r := g.location.get(it.ID)
			if r.bin == nil {
				return fmt.Errorf("item %d in bin %d is not located", it.ID, b.Index)
			}
			if r.bin != b || r.pos != i {
				return fmt.Errorf("item %d at position %d of bin %d is located at position %d of bin %d",
					it.ID, i, b.Index, r.pos, r.bin.Index)
			}
		}
		resident += len(b.resident)
		for d, lv := range b.level {
			if lv > b.Capacity+Eps {
				return fmt.Errorf("bin %d over capacity in dim %d: %g", b.Index, d, lv)
			}
			if lv < -Eps {
				return fmt.Errorf("bin %d negative level in dim %d: %g", b.Index, d, lv)
			}
		}
		if b.NumActive() == 0 && !b.Lingering() {
			return fmt.Errorf("open bin %d has no items and is not lingering", b.Index)
		}
	}
	if g.location.n != resident {
		return fmt.Errorf("%d items located, %d resident in open bins", g.location.n, resident)
	}
	if err := g.location.check(); err != nil {
		return err
	}
	if prev >= g.opened {
		return fmt.Errorf("open bin %d but only %d ever opened", prev, g.opened)
	}
	for i, e := range g.expiries {
		if e.bin == nil {
			return fmt.Errorf("nil bin in expiry heap at %d", i)
		}
		if i > 0 && g.expiries[(i-1)/2].emptySince > e.emptySince {
			return fmt.Errorf("expiry heap order violated at %d", i)
		}
	}
	// Every lingering bin must have a live closure scheduled; stale heap
	// entries for revived bins are legal (lazy invalidation).
	for _, b := range g.open {
		if !b.Lingering() {
			continue
		}
		scheduled := false
		for _, e := range g.expiries {
			if e.bin == b && e.emptySince == b.EmptySince() {
				scheduled = true
				break
			}
		}
		if !scheduled {
			return fmt.Errorf("lingering bin %d has no pending expiry entry", b.Index)
		}
	}
	if g.index != nil {
		if err := g.index.checkCoherent(g.open); err != nil {
			return err
		}
	}
	return nil
}
