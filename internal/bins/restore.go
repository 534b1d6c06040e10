package bins

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"dbp/internal/item"
)

// ServerState is the durable record of one open server: what a stream
// snapshot (packing.Snapshot) lists per server and what RestoreLedger
// rebuilds the server from. Bin.State writes it and restoreOpenBin reads
// it, so this file owns both halves of the format.
type ServerState struct {
	// Index is the server's position in opening order (stream-wide).
	Index int `json:"index"`
	// Level is the scalar utilization (first dimension for vector jobs).
	Level float64 `json:"level"`
	// Levels is the per-dimension utilization vector: the bin's exact
	// accumulated level, restored verbatim. It is NOT recomputed from the
	// jobs: a live bin's level is a running float sum over every
	// placement and removal it has seen, so only the verbatim accumulator
	// makes a restored ledger place future jobs on bit-identical levels.
	Levels []float64 `json:"levels,omitempty"`
	// Jobs is the number of jobs currently on the server.
	Jobs int `json:"jobs"`
	// OpenedAt is the time the server was opened.
	OpenedAt float64 `json:"opened_at"`
	// Lingering reports a keep-alive server that is empty but still
	// open (and billing) awaiting reuse or expiry.
	Lingering bool `json:"lingering,omitempty"`
	// EmptySince is the time a lingering server last emptied — the base
	// of its keep-alive expiry. Meaningful only when Lingering.
	EmptySince float64 `json:"empty_since,omitempty"`
	// Active lists the jobs resident on the server, ascending by ID, so
	// a restored stream can route their departures.
	Active []JobState `json:"active,omitempty"`
}

// JobState describes one resident job inside a ServerState. Departure is
// absent by construction: the stream is the online model, where a job's
// departure is unknown until it happens (it is restored as +Inf).
type JobState struct {
	ID      int64     `json:"id"`
	Size    float64   `json:"size"`
	Sizes   []float64 `json:"sizes,omitempty"`
	Arrival float64   `json:"arrival"`
}

// State captures the open bin as its durable record. The result shares no
// memory with the bin.
func (b *Bin) State() ServerState {
	sv := ServerState{
		Index:     b.Index,
		Level:     b.Level(),
		Levels:    append([]float64(nil), b.level...),
		Jobs:      len(b.resident),
		OpenedAt:  b.openedAt,
		Lingering: b.lingering(),
	}
	if sv.Lingering {
		sv.EmptySince = b.emptySince
	}
	if sv.Jobs > 0 {
		sv.Active = make([]JobState, len(b.resident))
		for j, it := range b.resident {
			sv.Active[j] = JobState{
				ID:      int64(it.ID),
				Size:    it.Size,
				Sizes:   append([]float64(nil), it.Sizes...),
				Arrival: it.Arrival,
			}
		}
		slices.SortFunc(sv.Active, func(a, b JobState) int { return cmp.Compare(a.ID, b.ID) })
	}
	return sv
}

// RestoreLedger rebuilds a ledger from durable snapshot state: the open
// fleet (ascending by Index), the total number of bins ever opened, the
// peak concurrency, and the exact closed-usage accumulator. Closed bins
// are not rebuilt — their usage lives in closedUsage and their indices
// below the opened counter — so the cost follows the open fleet, not the
// length of the run; the next bin to open takes Index opened, as in the
// uninterrupted ledger. The ledger copies what it keeps, so open stays the
// caller's. The result passes CheckInvariants before being returned.
func RestoreLedger(capacity float64, dim int, keepAlive float64, indexed bool,
	opened, peak int, closedUsage float64, open []ServerState) (*Ledger, error) {
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
		jobs += len(open[i].Active)
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
		b.ledger = g
		g.open = append(g.open, b)
		for pos, it := range b.resident {
			if !g.location.insert(idSlot{id: it.ID, bin: b, pos: pos}) {
				return nil, fmt.Errorf("bins: restore places job %d twice", it.ID)
			}
		}
		if b.lingering() {
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

// restoreOpenBin reconstructs one open bin verbatim from its record,
// refusing a record that contradicts itself.
func restoreOpenBin(r *ServerState, capacity float64, dim int, linger bool) (*Bin, error) {
	if len(r.Levels) != dim {
		return nil, fmt.Errorf("bins: restore bin %d has %d level dims, want %d", r.Index, len(r.Levels), dim)
	}
	if r.Level != r.Levels[0] {
		return nil, fmt.Errorf("bins: restore bin %d has level %g but levels[0] %g", r.Index, r.Level, r.Levels[0])
	}
	if r.Jobs != len(r.Active) {
		return nil, fmt.Errorf("bins: restore bin %d claims %d jobs but lists %d", r.Index, r.Jobs, len(r.Active))
	}
	if r.Lingering != (len(r.Active) == 0) {
		return nil, fmt.Errorf("bins: restore bin %d lingering=%v with %d jobs", r.Index, r.Lingering, len(r.Active))
	}
	b := &Bin{
		Index:           r.Index,
		Capacity:        capacity,
		LingerWhenEmpty: linger,
		openedAt:        r.OpenedAt,
		closedAt:        math.NaN(),
		emptySince:      math.NaN(),
		resident:        make([]item.Item, len(r.Active)),
	}
	b.level = b.level1[:]
	if dim > 1 {
		b.level = make([]float64, dim)
	}
	copy(b.level, r.Levels)
	if r.Lingering {
		if !linger {
			return nil, fmt.Errorf("bins: restore bin %d lingers but keep-alive is off", r.Index)
		}
		if math.IsNaN(r.EmptySince) || r.EmptySince < r.OpenedAt {
			return nil, fmt.Errorf("bins: restore bin %d empty since %g, opened at %g", r.Index, r.EmptySince, r.OpenedAt)
		}
		b.emptySince = r.EmptySince
	}
	for i, jb := range r.Active {
		b.resident[i] = item.Item{
			ID:        item.ID(jb.ID),
			Size:      jb.Size,
			Sizes:     append([]float64(nil), jb.Sizes...),
			Arrival:   jb.Arrival,
			Departure: math.Inf(1), // streaming model: unknown until Depart
		}
	}
	return b, nil
}
