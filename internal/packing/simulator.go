package packing

import (
	"fmt"
	"math"

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

// Run simulates the online packing of the item list under the given
// algorithm and returns the complete packing outcome. The algorithm is
// Reset before the run. Run returns an error if the capacity or the
// keep-alive is NaN, infinite or negative, some demand is refused by
// item.CheckDemand at the run's capacity and the first item's dimension
// (ErrBadDemand, as on every front end), the item list is otherwise
// invalid, or the algorithm returns an unusable placement
// (ErrPolicyMisplace, a policy bug that aborts the run).
func Run(algo Algorithm, l item.List, opt *Options) (*Result, error) {
	if opt != nil && !validCapacity(opt.Capacity) {
		return nil, badCapacity(opt.Capacity)
	}
	if err := l.ValidateCap(opt.capacity(), 0); err != nil {
		return nil, admission(err)
	}
	return runCore(algo, l, opt, nil)
}

// runCore is the event loop shared by Run, Replay (homogeneous capacity)
// and RunFleet (per-opening capacity via capacityFor, nil for
// homogeneous). Its caller has validated the list, so every item has the
// first one's dimension. All placement mechanics — policy query,
// misplace check, bin-open notification — live in the engine, the same
// core Stream drives.
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
	if len(l) > math.MaxInt32 { // a ServerRecord keeps list positions as int32
		return nil, fmt.Errorf("packing: %d items, at most %d in one run", len(l), math.MaxInt32)
	}
	capacity := opt.capacity()
	if capacityFor != nil {
		capacity = 1 // RunFleet's tiers are the only capacities
	}
	dim := 1
	if len(l) > 0 {
		dim = l[0].Dim()
	}
	eng := newEngine(algo, capacity, dim, keepAlive, opt.engine())
	rec := newRecorder(len(l))

	for _, s := range l.Steps(opt != nil && opt.ArrivalsFirst) {
		it, t := &l[s.Pos], s.Time(l)
		eng.ledger.CloseExpired(t)
		switch s.Kind {
		case item.Depart:
			eng.depart(it.ID, t)
		case item.Arrive:
			b, opened, err := eng.arrive(*it, t, capacityFor)
			if err != nil {
				return nil, err
			}
			rec.placed(b, s.Pos, opened)
		}
		if opt != nil && opt.Validate {
			if err := eng.validate(); err != nil {
				return nil, fmt.Errorf("packing: invariant violated after %v of item %d at t=%g: %w",
					s.Kind, it.ID, t, err)
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
