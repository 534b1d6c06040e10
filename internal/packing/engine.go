package packing

import (
	"fmt"
	"math"

	"dbp/internal/bins"
	"dbp/internal/item"
)

// EngineKind selects the Fleet backend placements run against.
type EngineKind string

const (
	// EngineIndexed answers policy queries from the ledger-maintained
	// bins.Index in O(log B) per event — the default for every caller.
	EngineIndexed EngineKind = "indexed"
	// EngineLinear answers the same queries with O(B) scans of identical
	// exact semantics. It is the executable reference the equivalence
	// suite pins the index against, and the baseline of
	// BenchmarkLargeFleetKeepAliveScaling (make bench-fleet).
	EngineLinear EngineKind = "linear"
)

// valid reports whether k names a known engine ("" means indexed).
func (k EngineKind) valid() bool {
	return k == "" || k == EngineIndexed || k == EngineLinear
}

// engine is the shared placement core both the batch simulator (Run,
// RunFleet) and the streaming dispatcher (Stream) drive: one validation
// path, one placement/misplace check, one bin-open notification. The two
// front ends differ only in where events come from (a pre-sorted queue
// vs. live calls) and in bookkeeping around the loop.
type engine struct {
	algo        Algorithm
	ledger      *bins.Ledger
	fleet       Fleet
	kind        EngineKind
	clairvoyant bool
	scalar      [1]float64 // a scalar arrival's demand vector
}

// newEngine builds an engine over a fresh ledger. capacity <= 0 means
// unit capacity; dim <= 0 means scalar. The algorithm is Reset.
func newEngine(algo Algorithm, capacity float64, dim int, keepAlive float64, kind EngineKind, clairvoyant bool) *engine {
	if capacity <= 0 {
		capacity = 1
	}
	if dim <= 0 {
		dim = 1
	}
	if kind == "" {
		kind = EngineIndexed
	}
	algo.Reset()
	ledger := bins.NewLedgerKeepAlive(capacity, dim, keepAlive)
	if kind != EngineLinear {
		ledger.EnableIndex()
	}
	return &engine{algo: algo, ledger: ledger, fleet: newFleet(kind, ledger), kind: kind, clairvoyant: clairvoyant}
}

// checkDemand is the single admission gate for arriving demands, shared
// verbatim by Run and Stream (the satellite bugfix: the batch simulator
// used to skip the per-dimension vector checks, letting negative/NaN/
// oversized components panic deep inside Bin.Place). Every rejection
// wraps ErrBadDemand.
func (e *engine) checkDemand(it item.Item) error {
	cap := e.ledger.Capacity()
	if !(it.Size > 0) || it.Size > cap+bins.Eps {
		return failf(ErrBadDemand, "packing: job %d size %g cannot fit any server of capacity %g", it.ID, it.Size, cap)
	}
	if it.Dim() != e.ledger.Dim() {
		return failf(ErrBadDemand, "packing: job %d has dim %d, fleet has dim %d", it.ID, it.Dim(), e.ledger.Dim())
	}
	// The scalar check above only constrains Size; a vector demand with a
	// single oversized (or negative / NaN) component would sail past it
	// and panic inside Bin.Place, so admit per dimension here.
	for d, c := range it.Sizes {
		if !(c >= 0) || c > cap+bins.Eps {
			return failf(ErrBadDemand, "packing: job %d demand %g in dim %d cannot fit any server of capacity %g", it.ID, c, d, cap)
		}
	}
	// Size must be the demand's largest component: the hybrids classify
	// by it and the scalar check above reads it.
	if err := it.CheckDominant(); err != nil {
		return failf(ErrBadDemand, "packing: %v", err)
	}
	return nil
}

// arrive validates the demand, asks the policy for a bin, and commits the
// placement — opening a new bin (capacityFor picks its size; nil means
// the ledger's homogeneous capacity) when the policy returns nil. A
// policy returning a closed or non-fitting bin fails with
// ErrPolicyMisplace.
func (e *engine) arrive(it item.Item, t float64, capacityFor func(Arrival) (float64, error)) (b *bins.Bin, opened bool, err error) {
	if err := e.checkDemand(it); err != nil {
		return nil, false, err
	}
	a := Arrival{ID: it.ID, Size: it.Size, Sizes: it.Sizes, Capacity: e.ledger.Capacity(), At: t, Departure: math.NaN()}
	if len(a.Sizes) == 0 {
		e.scalar[0] = it.Size
		a.Sizes = e.scalar[:]
	}
	if e.clairvoyant {
		a.Departure = it.Departure
	}
	b = e.algo.Place(a, e.fleet)
	if b == nil {
		capacity := e.ledger.Capacity()
		if capacityFor != nil {
			capacity, err = capacityFor(a)
			if err != nil {
				return nil, false, err
			}
		}
		b = e.ledger.OpenNewCap(it, t, capacity)
		e.algo.BinOpened(b)
		return b, true, nil
	}
	if !b.IsOpen() || !b.Fits(it) {
		return nil, false, failf(ErrPolicyMisplace, "packing: policy %s returned unusable bin %d for job %d", e.algo.Name(), b.Index, it.ID)
	}
	e.ledger.PlaceIn(b, it, t)
	return b, false, nil
}

// depart removes the item from its bin. The caller guarantees the item
// is resident (Stream pre-checks Locate; the simulator's event order is
// consistent by construction).
func (e *engine) depart(id item.ID, t float64) (b *bins.Bin, closed bool) {
	return e.ledger.Remove(id, t)
}

// validate runs the ledger's invariant checks (Options.Validate, tests).
func (e *engine) validate() error { return e.ledger.CheckInvariants() }

func badEngine(kind EngineKind) error {
	return fmt.Errorf("packing: unknown engine %q (valid: %s, %s)", kind, EngineIndexed, EngineLinear)
}

// validCapacity reports whether c is a server capacity Run and
// NewStreamEngine accept: 0, meaning 1, or a positive finite number.
// Against NaN or +Inf every admission comparison would pass.
func validCapacity(c float64) bool { return c == 0 || c > 0 && !math.IsInf(c, 1) }

func badCapacity(c float64) error {
	return fmt.Errorf("packing: server capacity %g is not a positive finite number", c)
}

// validKeepAlive reports whether k is a keep-alive Run and
// NewStreamEngine accept: 0 or a positive finite number. A NaN one
// would close an emptied server at once, and an infinite one never.
func validKeepAlive(k float64) bool { return k == 0 || k > 0 && !math.IsInf(k, 1) }

func badKeepAlive(k float64) error {
	return fmt.Errorf("packing: keep-alive %g is not 0 or a positive finite number", k)
}
