package packing

import "dbp/internal/bins"

// The two Fleet backends. indexedFleet answers every query from the
// ledger-maintained bins.Index (O(log B)), whose methods it promotes;
// linearFleet answers the same queries by scanning the open list (O(B))
// with identical exact semantics. The linear backend is the executable
// specification the indexed one is tested against, and the baseline the
// large-fleet benchmarks (make bench-fleet) measure the index against.

type indexedFleet struct {
	*bins.Index
	ledger *bins.Ledger
}

func (f indexedFleet) Open() []*bins.Bin { return f.ledger.OpenBins() }

// newFleet returns the backend of the given kind over the ledger, whose
// index must already be enabled unless the kind is EngineLinear.
func newFleet(kind EngineKind, ledger *bins.Ledger) Fleet {
	if kind == EngineLinear {
		return linearFleet{ledger: ledger}
	}
	return indexedFleet{Index: ledger.Index(), ledger: ledger}
}

type linearFleet struct {
	ledger *bins.Ledger
}

func (f linearFleet) Open() []*bins.Bin { return f.ledger.OpenBins() }

// The queries share one admission comparison with the indexed backend —
// bins.Bin.FitsDemand — and its scores — bins.Bin.TotalGap and MinGap —
// so the two engines cannot disagree on a borderline demand or a tie;
// only the search strategy differs (scan vs tree descent or treap walk).

func (f linearFleet) FirstFittingVec(sizes []float64) *bins.Bin {
	for _, b := range f.ledger.OpenBins() {
		if b.FitsDemand(sizes) {
			return b
		}
	}
	return nil
}

func (f linearFleet) LastFittingVec(sizes []float64) *bins.Bin {
	open := f.ledger.OpenBins()
	for i := len(open) - 1; i >= 0; i-- {
		if open[i].FitsDemand(sizes) {
			return open[i]
		}
	}
	return nil
}

func (f linearFleet) TightestFittingVec(sizes []float64) *bins.Bin {
	var best *bins.Bin
	for _, b := range f.ledger.OpenBins() {
		if !b.FitsDemand(sizes) {
			continue
		}
		if best == nil || b.TotalGap() < best.TotalGap() {
			best = b
		}
	}
	return best
}

func (f linearFleet) MaxMinGapFitting(sizes []float64) *bins.Bin {
	var best *bins.Bin
	for _, b := range f.ledger.OpenBins() {
		if !b.FitsDemand(sizes) {
			continue
		}
		if best == nil || b.MinGap() > best.MinGap() {
			best = b
		}
	}
	return best
}

func (f linearFleet) SecondEmptiestFitting(sizes []float64) *bins.Bin {
	var first, second *bins.Bin
	for _, b := range f.ledger.OpenBins() {
		switch {
		case !b.FitsDemand(sizes):
		case first == nil:
			first = b
		case b.MinGap() > first.MinGap():
			second = first
			first = b
		case second == nil || b.MinGap() > second.MinGap():
			second = b
		}
	}
	return second
}
