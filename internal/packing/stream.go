package packing

import (
	"math"

	"dbp/internal/bins"
	"dbp/internal/item"
)

// Stream is the online dispatching interface matching the paper's cloud
// scenario: jobs arrive one at a time with unknown departure times, the
// caller is told which server (bin) each job was assigned to, and later
// reports departures. It is what a cloud-gaming provider's dispatcher
// would embed; Run is a convenience wrapper over the same engine for
// instances whose departures are known to the simulator — both drive the
// identical placement core (validation, policy query, misplace check).
//
// Time must be fed in non-decreasing order across Arrive and Depart calls.
type Stream struct {
	eng    *engine
	now    float64
	nEvent int
}

// ErrServer is the server index Arrive and Depart return alongside a
// non-nil error. Real server indices start at 0, so a caller that stores
// the index before checking the error can never mistake a failed call for
// an assignment to the first server.
const ErrServer = -1

// NewStream creates a dispatcher using the given policy. The policy is
// Reset. dim is the resource dimensionality (1 for the scalar problem);
// capacity 0 means unit capacity. It panics on a capacity that is not
// 0 or a positive finite number and on a departure-aware policy, which
// NewStreamEngine reports as errors.
func NewStream(algo Algorithm, capacity float64, dim int) *Stream {
	return NewStreamKeepAlive(algo, capacity, dim, 0)
}

// NewStreamKeepAlive is NewStream with lingering servers: an emptied
// server stays open (reusable) for keepAlive time units before shutting
// down, mirroring Options.KeepAlive for batch runs. Expiries are
// processed as the stream's clock advances.
func NewStreamKeepAlive(algo Algorithm, capacity float64, dim int, keepAlive float64) *Stream {
	s, err := NewStreamEngine(algo, capacity, dim, keepAlive, EngineIndexed)
	if err != nil {
		panic(err) // a NaN, infinite or negative capacity or keep-alive, or a departure-aware policy
	}
	return s
}

// NewStreamEngine is NewStreamKeepAlive with an explicit engine kind —
// EngineIndexed (the default everywhere) or EngineLinear (the reference
// backend the equivalence suite compares against). It refuses an unknown
// kind, a NaN, infinite or negative capacity or keep-alive, and a
// departure-aware policy (Align Fit, Predictive Fit, No-Extend Fit),
// since a stream knows no departure before it happens.
func NewStreamEngine(algo Algorithm, capacity float64, dim int, keepAlive float64, kind EngineKind) (*Stream, error) {
	if err := streamable(algo); err != nil {
		return nil, err
	}
	if !kind.valid() {
		return nil, badEngine(kind)
	}
	if !validCapacity(capacity) {
		return nil, badCapacity(capacity)
	}
	if !validKeepAlive(keepAlive) {
		return nil, badKeepAlive(keepAlive)
	}
	return &Stream{eng: newEngine(algo, capacity, dim, keepAlive, kind)}, nil
}

// Arrive dispatches a job with the given demand at time t and returns the
// index of the server it was assigned to, plus whether a new server was
// opened for it. sizes carries the vector demand for multi-dimensional
// streams and must be nil for 1-D streams.
//
// On error the returned server index is ErrServer (-1), which no real
// server ever carries — server 0 is a legitimate assignment, so callers
// that record indices before checking err cannot confuse the two.
func (s *Stream) Arrive(id item.ID, size float64, sizes []float64, t float64) (server int, opened bool, err error) {
	if err := s.advance(t); err != nil {
		return ErrServer, false, err
	}
	if s.eng.ledger.Locate(id) != nil {
		return ErrServer, false, failf(ErrDuplicateJob, "packing: job %d already running", id)
	}
	it := item.Item{ID: id, Size: size, Sizes: sizes, Arrival: t, Departure: math.Inf(1)}
	if err := it.CheckDemand(s.eng.ledger.Capacity(), s.eng.ledger.Dim()); err != nil {
		return ErrServer, false, admission(err)
	}
	b, opened, err := s.eng.arrive(it, t, nil)
	if err != nil {
		return ErrServer, false, err
	}
	return b.Index, opened, nil
}

// Depart reports that the job left at time t. It returns the server index
// it was on and whether that server shut down (closed) as a result. On
// error the server index is ErrServer (-1), never a valid index.
func (s *Stream) Depart(id item.ID, t float64) (server int, closed bool, err error) {
	if err := s.advance(t); err != nil {
		return ErrServer, false, err
	}
	if s.eng.ledger.Locate(id) == nil {
		return ErrServer, false, failf(ErrUnknownJob, "packing: job %d is not running", id)
	}
	b, closed := s.eng.depart(id, t)
	return b.Index, closed, nil
}

func (s *Stream) advance(t float64) error {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return failf(ErrTimeRegression, "packing: non-finite time %g", t)
	}
	if s.nEvent > 0 && t < s.now {
		return failf(ErrTimeRegression, "packing: time went backwards (%g after %g)", t, s.now)
	}
	s.now = t
	s.nEvent++
	s.eng.ledger.CloseExpired(t)
	return nil
}

// Advance feeds a bare clock tick: the event counter increments, the
// clock moves to t, and due keep-alive expiries are processed — exactly
// the advance an Arrive/Depart performs before its own checks. Durable
// recovery (internal/wal) replays ticks for journaled events that
// advanced the clock but were then rejected (duplicate job, unknown job,
// bad demand), keeping replayed event counts and expiry processing
// bit-identical to the original run.
func (s *Stream) Advance(t float64) error { return s.advance(t) }

// Now returns the time of the last event fed to the stream.
func (s *Stream) Now() float64 { return s.now }

// OpenServers returns the number of currently running servers.
func (s *Stream) OpenServers() int { return s.eng.ledger.NumOpen() }

// ServersUsed returns the total number of servers ever opened.
func (s *Stream) ServersUsed() int { return s.eng.ledger.NumOpened() }

// PeakServers returns the maximum number of simultaneously open servers.
func (s *Stream) PeakServers() int { return s.eng.ledger.MaxConcurrentOpen() }

// AccumulatedUsage returns the total server usage time up to time now
// (open servers accrue usage up to now). This is the quantity the cloud
// tenant pays for under idealized (continuous) pay-as-you-go billing.
func (s *Stream) AccumulatedUsage(now float64) float64 { return s.eng.ledger.TotalUsage(now) }

// Ledger exposes the underlying bin ledger for inspection (read-only use).
func (s *Stream) Ledger() *bins.Ledger { return s.eng.ledger }

// Policy returns the name of the placement policy driving the stream.
func (s *Stream) Policy() string { return s.eng.algo.Name() }

// Engine returns the engine kind ("indexed" or "linear") the stream's
// placements run on — surfaced per shard by the allocation service's
// stats endpoint.
func (s *Stream) Engine() string { return string(s.eng.kind) }

// Shutdown closes every lingering server at its natural expiry (used
// when a keep-alive stream drains). Servers still holding jobs are
// untouched; it returns the number of servers still running.
func (s *Stream) Shutdown() int {
	s.eng.ledger.CloseAllLingering()
	return s.eng.ledger.NumOpen()
}
