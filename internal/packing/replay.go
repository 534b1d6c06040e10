package packing

import (
	"fmt"

	"dbp/internal/bins"
	"dbp/internal/event"
	"dbp/internal/item"
)

// Replay reconstructs a packing from an externally-supplied assignment
// (item -> bin index) and verifies its physical legality along the way:
// every item placed in its assigned bin at its arrival, capacity
// respected at every instant. It returns the full Result (usage time,
// peak, each server's record) for the external packing, enabling
// apples-to-apples comparison of third-party dispatchers against the
// policies implemented here (cmd/dbpverify -assign consumes this).
//
// Bin indices in the assignment are labels: they are normalized to
// opening order (the order bins first receive an item), so any distinct
// labeling is accepted.
func Replay(l item.List, assign map[item.ID]int) (*Result, error) {
	if err := l.Validate(); err != nil {
		return nil, fmt.Errorf("packing: invalid instance: %w", err)
	}
	dim := (&Options{}).dim(l)
	for _, it := range l {
		if _, ok := assign[it.ID]; !ok {
			return nil, fmt.Errorf("packing: item %d has no assignment", it.ID)
		}
	}
	ledger := bins.NewLedger(1.0, dim)
	rec := newRecorder(len(l))
	label2bin := make(map[int]*bins.Bin)
	for _, e := range event.Order(l, false) {
		switch e.Kind {
		case event.Depart:
			ledger.Remove(e.Item.ID, e.Time)
		case event.Arrive:
			label := assign[e.Item.ID]
			b := label2bin[label]
			if b != nil && !b.IsOpen() {
				// The label's previous bin closed; the external packing
				// reuses the label for a fresh server.
				b = nil
			}
			opened := b == nil
			if opened {
				b = ledger.OpenNew(e.Item, e.Time)
				label2bin[label] = b
			} else {
				if !b.Fits(e.Item) {
					return nil, fmt.Errorf("packing: replay places item %d (size %g) in bin %d over capacity (level %g) at t=%g",
						e.Item.ID, e.Item.Size, label, b.Level(), e.Time)
				}
				ledger.PlaceIn(b, e.Item, e.Time)
			}
			rec.placed(b, e.Item, opened)
		}
	}
	return rec.result("Replay", l, ledger)
}
