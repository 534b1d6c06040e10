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
// RunFleet, Replay) and the streaming dispatcher (Stream) drive: one
// placement/misplace check, one bin-open notification. The front ends
// differ in where events come from, in how demands are admitted (a whole
// list before the loop vs. each call) and in bookkeeping.
type engine struct {
	algo        Algorithm
	opener      binOpener         // algo, if it tracks the bins it opens
	stateful    statefulAlgorithm // algo, if a snapshot carries its state
	ledger      *bins.Ledger
	fleet       Fleet
	kind        EngineKind
	clairvoyant bool
	scalar      [1]float64 // a scalar arrival's demand vector
}

// newEngine builds an engine over a fresh ledger. capacity <= 0 means
// unit capacity; dim <= 0 means scalar.
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
	ledger := bins.NewLedgerKeepAlive(capacity, dim, keepAlive)
	if kind != EngineLinear {
		ledger.EnableIndex()
	}
	return engineOn(algo, ledger, kind, clairvoyant)
}

// engineOn builds an engine over ledger: it finds the policy's optional
// hooks once, here, and resets a policy that has run state.
func engineOn(algo Algorithm, ledger *bins.Ledger, kind EngineKind, clairvoyant bool) *engine {
	e := &engine{algo: algo, ledger: ledger, fleet: newFleet(kind, ledger), kind: kind, clairvoyant: clairvoyant}
	e.opener, _ = algo.(binOpener)
	e.stateful, _ = algo.(statefulAlgorithm)
	if r, ok := algo.(resetter); ok {
		r.Reset()
	}
	return e
}

// arrive asks the policy for a bin for a demand its front end has
// already checked, and commits the placement — opening a new bin
// (capacityFor picks its size; nil means the ledger's homogeneous
// capacity) when the policy returns nil. A policy returning a bin of
// another ledger, a closed or a non-fitting one fails with
// ErrPolicyMisplace.
func (e *engine) arrive(it item.Item, t float64, capacityFor func(Arrival) (float64, error)) (b *bins.Bin, opened bool, err error) {
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
		if e.opener != nil {
			e.opener.BinOpened(b)
		}
		return b, true, nil
	}
	if !e.ledger.Owns(b) || !b.IsOpen() || !b.Fits(it) {
		return nil, false, failf(ErrPolicyMisplace, "packing: policy %s returned unusable bin %d (level %g) for job %d (size %g) at t=%g",
			e.algo.Name(), b.Index, b.Level(), it.ID, it.Size, t)
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
