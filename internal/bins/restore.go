package bins

import (
	"fmt"
	"math"

	"dbp/internal/item"
)

// RestoredJob is one active job inside a BinRestore: everything the
// ledger retains about a resident item whose departure is still unknown
// (the streaming model — Departure is restored as +Inf). The Sizes
// slice is ADOPTED by RestoreLedger — the restored item references it
// directly — so callers whose source data outlives the call must pass a
// copy (packing.RestoreStream does).
type RestoredJob struct {
	ID      item.ID
	Size    float64
	Sizes   []float64
	Arrival float64
}

// BinRestore describes one open bin for RestoreLedger: its identity,
// timing, and — critically — its exact accumulated level vector. The
// level is NOT recomputed from the jobs: a live bin's level is a running
// float sum over every placement and removal it has seen, so only the
// verbatim accumulator makes a restored ledger place future jobs on
// bit-identical levels. Levels (like each job's Sizes) is ADOPTED by
// RestoreLedger as the bin's live accumulator (at d = 1, copied into the
// bin); callers pass a copy if their source data outlives the call.
type BinRestore struct {
	Index      int
	OpenedAt   float64
	Lingering  bool    // open but empty, awaiting keep-alive expiry
	EmptySince float64 // valid iff Lingering
	Levels     []float64
	Jobs       []RestoredJob
}

// RestoreLedger rebuilds a ledger from durable snapshot state: the open
// fleet (ascending by Index), the total number of bins ever opened, the
// peak concurrency, and the exact closed-usage accumulator. Closed bins
// are not rebuilt — their usage lives in closedUsage and their indices
// below the opened counter — so the cost follows the open fleet, not the
// length of the run; the next bin to open takes Index opened, as in the
// uninterrupted ledger. The result passes CheckInvariants before being
// returned.
func RestoreLedger(capacity float64, dim int, keepAlive float64, indexed bool,
	opened, peak int, closedUsage float64, open []BinRestore) (*Ledger, error) {
	if dim < 1 {
		return nil, fmt.Errorf("bins: restore with dim %d", dim)
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("bins: restore with capacity %g", capacity)
	}
	if keepAlive < 0 {
		return nil, fmt.Errorf("bins: restore with negative keep-alive %g", keepAlive)
	}
	if len(open) > opened {
		return nil, fmt.Errorf("bins: restore lists %d open bins but only %d ever opened", len(open), opened)
	}
	if peak < len(open) {
		return nil, fmt.Errorf("bins: restore peak %d below %d open bins", peak, len(open))
	}
	g := NewLedgerKeepAlive(capacity, dim, keepAlive)
	if indexed {
		g.EnableIndex()
	}
	g.open = make([]*Bin, 0, len(open))
	jobs := 0
	for i := range open {
		jobs += len(open[i].Jobs)
	}
	g.location = newIDTable(jobs)
	prev := -1
	for i := range open {
		r := &open[i]
		if r.Index <= prev {
			return nil, fmt.Errorf("bins: restore open list out of order at bin %d", r.Index)
		}
		if r.Index >= opened {
			return nil, fmt.Errorf("bins: restore open bin %d beyond %d ever opened", r.Index, opened)
		}
		prev = r.Index
		b, err := restoreOpenBin(r, capacity, dim, keepAlive > 0)
		if err != nil {
			return nil, err
		}
		g.open = append(g.open, b)
		for pos, it := range b.resident {
			if !g.location.insert(idSlot{id: it.ID, bin: b, pos: pos}) {
				return nil, fmt.Errorf("bins: restore places job %d twice", it.ID)
			}
		}
		if b.Lingering() {
			g.expiries.push(expiryEntry{emptySince: b.emptySince, bin: b})
		}
		if g.index != nil {
			g.index.observeOpen(b)
		}
	}
	g.opened = opened
	g.maxConcurrentOpen = peak
	g.closedUsage = closedUsage
	if err := g.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("bins: restored ledger is incoherent: %w", err)
	}
	return g, nil
}

// restoreOpenBin reconstructs one open bin verbatim from its snapshot.
func restoreOpenBin(r *BinRestore, capacity float64, dim int, linger bool) (*Bin, error) {
	if len(r.Levels) != dim {
		return nil, fmt.Errorf("bins: restore bin %d has %d level dims, want %d", r.Index, len(r.Levels), dim)
	}
	if r.Lingering != (len(r.Jobs) == 0) {
		return nil, fmt.Errorf("bins: restore bin %d lingering=%v with %d jobs", r.Index, r.Lingering, len(r.Jobs))
	}
	b := &Bin{
		Index:           r.Index,
		Capacity:        capacity,
		LingerWhenEmpty: linger,
		openedAt:        r.OpenedAt,
		closedAt:        math.NaN(),
		emptySince:      math.NaN(),
		level:           r.Levels, // adopted; see BinRestore
		resident:        make([]item.Item, len(r.Jobs)),
	}
	if dim == 1 {
		b.level1[0] = r.Levels[0]
		b.level = b.level1[:]
	}
	if r.Lingering {
		if !linger {
			return nil, fmt.Errorf("bins: restore bin %d lingers but keep-alive is off", r.Index)
		}
		if math.IsNaN(r.EmptySince) || r.EmptySince < r.OpenedAt {
			return nil, fmt.Errorf("bins: restore bin %d empty since %g, opened at %g", r.Index, r.EmptySince, r.OpenedAt)
		}
		b.emptySince = r.EmptySince
	}
	for i, jb := range r.Jobs {
		it := item.Item{
			ID:        jb.ID,
			Size:      jb.Size,
			Sizes:     jb.Sizes, // adopted; see RestoredJob
			Arrival:   jb.Arrival,
			Departure: math.Inf(1), // streaming model: unknown until Depart
		}
		if len(jb.Sizes) == 0 {
			it.Sizes = nil
		}
		b.resident[i] = it
	}
	return b, nil
}
