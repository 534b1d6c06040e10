package packing

import (
	"errors"
	"fmt"

	"dbp/internal/event"
	"dbp/internal/item"
)

// Options configures a simulation run. The zero value means: unit
// capacity, dimensionality inferred from the items, indexed engine, no
// per-event validation.
type Options struct {
	// Capacity is the per-dimension bin capacity; 0 means 1.0 (the
	// paper's normalization — item sizes are fractions of a server). Run
	// refuses a NaN, infinite or negative capacity.
	Capacity float64
	// Dim forces the resource dimensionality; 0 infers it from the items
	// (1 unless some item carries a vector demand).
	Dim int
	// Engine selects the Fleet backend: EngineIndexed ("" = default)
	// answers policy queries from the ledger-maintained index in
	// O(log B); EngineLinear uses the O(B) reference scans. The two
	// produce bit-identical packings (the equivalence suite asserts it);
	// linear exists as the executable specification and benchmark
	// baseline.
	Engine EngineKind
	// Validate runs ledger invariant checks after every event. Slow;
	// meant for tests.
	Validate bool
	// Clairvoyant reveals each item's departure time to the policy
	// (Arrival.Departure). This leaves the paper's online model; it
	// exists for baseline policies that quantify the value of knowing
	// departures (cf. interval scheduling, Sec. II).
	Clairvoyant bool
	// KeepAlive keeps emptied bins open (lingering, reusable) for this
	// many time units before shutting them down — the cloud keep-alive
	// model, where a server whose billed hour is already paid may as
	// well stay available. 0 closes bins the moment they empty (the
	// paper's model). Lingering time counts toward TotalUsage.
	KeepAlive float64
	// ArrivalsFirst flips the same-timestamp event order so arrivals are
	// processed before departures — an ablation of the half-open
	// interval convention (DESIGN.md §6). Under it, capacity freed at
	// time t cannot serve an arrival at t.
	ArrivalsFirst bool
}

func (o *Options) capacity() float64 {
	if o == nil || o.Capacity == 0 {
		return 1.0
	}
	return o.Capacity
}

func (o *Options) engine() EngineKind {
	if o == nil {
		return EngineIndexed
	}
	return o.Engine
}

func (o *Options) dim(l item.List) int {
	if o != nil && o.Dim > 0 {
		return o.Dim
	}
	d := 1
	for _, it := range l {
		if it.Dim() > d {
			d = it.Dim()
		}
	}
	return d
}

// Run simulates the online packing of the item list under the given
// algorithm and returns the complete packing outcome. The algorithm is
// Reset before the run. Run returns an error if the capacity or the
// keep-alive is NaN, infinite or negative, the item list is invalid,
// some demand can never be served by a server of the run's capacity
// (ErrBadDemand — the same typed sentinel Stream.Arrive uses), or the
// algorithm returns an unusable placement (ErrPolicyMisplace, a policy
// bug that aborts the run).
func Run(algo Algorithm, l item.List, opt *Options) (*Result, error) {
	if opt != nil && !validCapacity(opt.Capacity) {
		return nil, badCapacity(opt.Capacity)
	}
	if err := l.ValidateCap(opt.capacity()); err != nil {
		var size *item.SizeError
		if errors.As(err, &size) {
			return nil, failf(ErrBadDemand, "packing: %v", err)
		}
		return nil, fmt.Errorf("packing: invalid instance: %w", err)
	}
	dim := opt.dim(l)
	for _, it := range l {
		if it.Dim() != dim {
			return nil, fmt.Errorf("packing: item %d has dim %d, run has dim %d", it.ID, it.Dim(), dim)
		}
	}
	return runCore(algo, l, opt, nil)
}

// runCore is the event loop shared by Run (homogeneous capacity) and
// RunFleet (per-opening capacity via capacityFor, nil for homogeneous).
// The instance must already be validated. All placement mechanics —
// demand validation, policy query, misplace check, bin-open notification
// — live in the engine, the same core Stream drives.
func runCore(algo Algorithm, l item.List, opt *Options, capacityFor func(a Arrival) (float64, error)) (*Result, error) {
	if !opt.engine().valid() {
		return nil, badEngine(opt.engine())
	}
	keepAlive := 0.0
	if opt != nil {
		if !validKeepAlive(opt.KeepAlive) {
			return nil, badKeepAlive(opt.KeepAlive)
		}
		keepAlive = opt.KeepAlive
	}
	eng := newEngine(algo, opt.capacity(), opt.dim(l), keepAlive, opt.engine(), opt != nil && opt.Clairvoyant)
	rec := newRecorder(len(l))

	for _, e := range event.Order(l, opt != nil && opt.ArrivalsFirst) {
		eng.ledger.CloseExpired(e.Time)
		switch e.Kind {
		case event.Depart:
			eng.depart(e.Item.ID, e.Time)
		case event.Arrive:
			b, opened, err := eng.arrive(e.Item, e.Time, capacityFor)
			if err != nil {
				return nil, err
			}
			rec.placed(b, e.Item, opened)
		}
		if opt != nil && opt.Validate {
			if err := eng.validate(); err != nil {
				return nil, fmt.Errorf("packing: invariant violated after %v of item %d at t=%g: %w",
					e.Kind, e.Item.ID, e.Time, err)
			}
		}
	}

	eng.ledger.CloseAllLingering()
	return rec.result(algo.Name(), l, eng.ledger)
}

// MustRun is Run for known-good inputs (tests, benchmarks, examples); it
// panics on error.
func MustRun(algo Algorithm, l item.List, opt *Options) *Result {
	res, err := Run(algo, l, opt)
	if err != nil {
		panic(err)
	}
	return res
}
