package packing

import (
	"fmt"

	"dbp/internal/bins"
	"dbp/internal/interval"
	"dbp/internal/item"
)

// ServerRecord is what a batch run keeps about one server once it has
// drained: the server's identity, its usage period as the ledger decided
// it, and every item it was given. Items are never migrated, so an item
// resides in its server for its whole active interval, and the server's
// state at any time can be rebuilt from Items alone.
type ServerRecord struct {
	// Index is the server's position in opening order, which is also its
	// position in Result.Bins.
	Index int
	// Capacity is the server's per-dimension capacity.
	Capacity float64
	// OpenedAt and ClosedAt bound the usage period [OpenedAt, ClosedAt).
	OpenedAt, ClosedAt float64
	// Items are the items placed in the server, in placement order. A
	// batch run places each item at its own Arrival.
	Items item.List
}

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
	for _, it := range s.Items {
		if it.Interval().Contains(t) {
			lv += it.Size
		}
	}
	return lv
}

// ItemsAt reconstructs the items resident in the server at time t, in
// placement order.
func (s *ServerRecord) ItemsAt(t float64) item.List {
	var out item.List
	for _, it := range s.Items {
		if it.Interval().Contains(t) {
			out = append(out, it)
		}
	}
	return out
}

// recorder keeps a batch run's record (Run, RunFleet, Replay) from what
// the ledger returns per placement, and builds the run's Result when the
// ledger has drained. It holds the bins the ledger opened only until then,
// so a Result refers to no bins.Bin.
type recorder struct {
	opened     []*bins.Bin // by Index: the ledger numbers openings from 0
	items      item.List   // every placement, in placement order
	server     []int       // server[i] is the Index of the bin items[i] went to
	assignment map[item.ID]int
}

func newRecorder(items int) *recorder {
	return &recorder{
		items:      make(item.List, 0, items),
		server:     make([]int, 0, items),
		assignment: make(map[item.ID]int, items),
	}
}

// placed records that the ledger put the item in b, which it has just
// opened for the item when opened is set.
func (r *recorder) placed(b *bins.Bin, it item.Item, opened bool) {
	if opened {
		r.opened = append(r.opened, b)
	}
	r.items = append(r.items, it)
	r.server = append(r.server, b.Index)
	r.assignment[it.ID] = b.Index
}

// result copies each server's period out of the drained ledger and
// returns the run's Result. Every server's Items share one backing array,
// laid out server by server with a counting pass; each is capped at its
// own length, so appending to one reallocates rather than overwrite the
// next server's items.
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
	flat := make(item.List, len(r.items))
	for i, k := range r.server {
		flat[end[k]] = r.items[i]
		end[k]++
	}
	servers := make([]ServerRecord, len(r.opened))
	lo := 0
	for k, b := range r.opened {
		servers[k] = ServerRecord{
			Index: b.Index, Capacity: b.Capacity,
			OpenedAt: b.OpenedAt(), ClosedAt: b.ClosedAt(),
			Items: flat[lo:end[k]:end[k]],
		}
		lo = end[k]
	}
	return &Result{
		Algorithm:         algorithm,
		Items:             l,
		Bins:              servers,
		Assignment:        r.assignment,
		TotalUsage:        g.TotalUsage(0),
		MaxConcurrentOpen: g.MaxConcurrentOpen(),
		KeepAlive:         g.KeepAlive(),
	}, nil
}
