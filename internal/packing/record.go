package packing

import (
	"fmt"

	"dbp/internal/bins"
	"dbp/internal/interval"
	"dbp/internal/item"
)

// ServerRecord is what a batch run keeps about one server once it has
// drained: the server's identity, its usage period as the ledger decided
// it, and the list position of every item it was given. Items are never
// migrated, so an item resides in its server for its whole active
// interval, and the server's state at any time can be rebuilt from its
// items alone. A record copies no item: Item reads the run's own
// Result.Items, so a record aliases the Result's list as the Result does.
type ServerRecord struct {
	// Index is the server's position in opening order, which is also its
	// position in Result.Bins.
	Index int
	// Capacity is the server's per-dimension capacity.
	Capacity float64
	// OpenedAt and ClosedAt bound the usage period [OpenedAt, ClosedAt).
	OpenedAt, ClosedAt float64
	// Pos holds the Result.Items position of every item placed in the
	// server, in placement order. A batch run places each item at its own
	// Arrival.
	Pos []int32
	// list is the owning Result's Items field, read through so that the
	// record follows the Result's list.
	list *item.List
}

// Item returns the j-th item placed in the server: the Result's item at
// Pos[j].
func (s *ServerRecord) Item(j int) item.Item { return (*s.list)[s.Pos[j]] }

// UsagePeriod returns U_k = [opening, closing).
func (s *ServerRecord) UsagePeriod() interval.Interval {
	return interval.Interval{Lo: s.OpenedAt, Hi: s.ClosedAt}
}

// Usage returns |U_k|, the server's contribution to the objective.
func (s *ServerRecord) Usage() float64 { return s.ClosedAt - s.OpenedAt }

// LevelAt reconstructs the server's scalar level at time t, summing in
// placement order.
func (s *ServerRecord) LevelAt(t float64) float64 {
	var lv float64
	for j := range s.Pos {
		if it := s.Item(j); it.Interval().Contains(t) {
			lv += it.Size
		}
	}
	return lv
}

// recorder keeps a batch run's record (Run, RunFleet, Replay) from what
// the ledger returns per placement, and builds the run's Result when the
// ledger has drained. It holds the bins the ledger opened only until then,
// so a Result refers to no bins.Bin.
type recorder struct {
	opened []*bins.Bin // by Index: the ledger numbers openings from 0
	order  []int32     // the list position of every placement, in placement order
	server []int       // server[pos] is the Index of the bin the list's item pos went to
}

func newRecorder(items int) *recorder {
	return &recorder{order: make([]int32, 0, items), server: make([]int, items)}
}

// placed records that the ledger put the list's item pos in b, which it
// has just opened for the item when opened is set.
func (r *recorder) placed(b *bins.Bin, pos int, opened bool) {
	if opened {
		r.opened = append(r.opened, b)
	}
	r.order = append(r.order, int32(pos))
	r.server[pos] = b.Index
}

// result copies each server's period out of the drained ledger and
// returns the run's Result. Every server's Pos shares one backing array,
// laid out server by server with a counting pass; each is capped at its
// own length, so appending to one reallocates rather than overwrite the
// next server's positions.
func (r *recorder) result(algorithm string, l item.List, g *bins.Ledger) (*Result, error) {
	if n := g.NumOpen(); n != 0 {
		return nil, fmt.Errorf("packing: %d bins still open after drain", n)
	}
	end := make([]int, len(r.opened)) // counts, then starts, then ends
	for _, k := range r.server {
		end[k]++
	}
	sum := 0
	for k, c := range end {
		end[k], sum = sum, sum+c
	}
	flat := make([]int32, len(r.order))
	for _, pos := range r.order {
		k := r.server[pos]
		flat[end[k]] = pos
		end[k]++
	}
	res := &Result{
		Algorithm:         algorithm,
		Items:             l,
		Bins:              make([]ServerRecord, len(r.opened)),
		Server:            r.server,
		TotalUsage:        g.TotalUsage(0),
		MaxConcurrentOpen: g.MaxConcurrentOpen(),
		KeepAlive:         g.KeepAlive(),
	}
	lo := 0
	for k, b := range r.opened {
		res.Bins[k] = ServerRecord{
			Index: b.Index, Capacity: b.Capacity,
			OpenedAt: b.OpenedAt(), ClosedAt: b.ClosedAt(),
			Pos:  flat[lo:end[k]:end[k]],
			list: &res.Items,
		}
		lo = end[k]
	}
	return res, nil
}
