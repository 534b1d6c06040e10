package packing

import "dbp/internal/bins"

// Snapshot is a point-in-time view of a Stream's state: the running
// objective totals plus one entry per open server. It is a deep copy —
// safe to retain, serialize, or inspect after the stream has moved on —
// which is what the allocation service publishes on its stats endpoint.
type Snapshot struct {
	// Now is the time of the last event fed to the stream.
	Now float64 `json:"now"`
	// Events is the number of events (arrivals + departures) accepted.
	Events int `json:"events"`
	// OpenServers is the number of currently running servers.
	OpenServers int `json:"open_servers"`
	// ServersUsed is the total number of servers ever opened.
	ServersUsed int `json:"servers_used"`
	// PeakServers is the maximum number of simultaneously open servers.
	PeakServers int `json:"peak_servers"`
	// UsageTime is the accumulated server usage time up to Now — the
	// MinUsageTime objective, what the tenant pays for.
	UsageTime float64 `json:"usage_time"`

	// The fields below make the snapshot restorable (RestoreStream):
	// enough configuration and exact accumulator state that a stream
	// rebuilt from it continues bit-identically to the original.

	// Policy is the placement policy's name; Engine the engine kind.
	Policy string `json:"policy,omitempty"`
	Engine string `json:"engine,omitempty"`
	// Capacity, Dim, KeepAlive are the stream's fleet configuration.
	Capacity  float64 `json:"capacity,omitempty"`
	Dim       int     `json:"dim,omitempty"`
	KeepAlive float64 `json:"keep_alive,omitempty"`
	// ClosedUsage is the exact usage accumulated by servers that have
	// closed — the live float accumulator verbatim, never recomputed
	// (summation order would change its low bits).
	ClosedUsage float64 `json:"closed_usage,omitempty"`
	// PolicyState carries bounded-state policies' retained references
	// (Next Fit's available server, Hybrid's class tags, Random Fit's
	// draw counter). Nil for stateless policies.
	PolicyState *PolicyState `json:"policy_state,omitempty"`

	// Servers describes each currently open server, ascending by Index:
	// the ledger's own record of an open server, which bins.Bin.State
	// writes and bins.RestoreLedger reads.
	Servers []bins.ServerState `json:"servers,omitempty"`
}

// UsageTime returns the accumulated server usage time up to the last
// event fed to the stream — AccumulatedUsage(Now()). Open servers
// accrue usage up to the stream clock.
func (s *Stream) UsageTime() float64 { return s.eng.ledger.TotalUsage(s.now) }

// Events returns the number of events (arrivals + departures, including
// any that advanced the clock) accepted so far.
func (s *Stream) Events() int { return s.nEvent }

// Snapshot captures the stream's current totals and per-server state —
// including everything RestoreStream needs to rebuild a stream that
// continues bit-identically. The result shares no memory with the stream.
func (s *Stream) Snapshot() Snapshot {
	open := s.eng.ledger.OpenBins()
	snap := Snapshot{
		Now:         s.now,
		Events:      s.nEvent,
		OpenServers: len(open),
		ServersUsed: s.eng.ledger.NumOpened(),
		PeakServers: s.eng.ledger.MaxConcurrentOpen(),
		UsageTime:   s.eng.ledger.TotalUsage(s.now),
		Policy:      s.eng.algo.Name(),
		Engine:      string(s.eng.kind),
		Capacity:    s.eng.ledger.Capacity(),
		Dim:         s.eng.ledger.Dim(),
		KeepAlive:   s.eng.ledger.KeepAlive(),
		ClosedUsage: s.eng.ledger.ClosedUsage(),
	}
	if s.eng.stateful != nil {
		st := s.eng.stateful.SaveState()
		snap.PolicyState = &st
	}
	if len(open) > 0 {
		snap.Servers = make([]bins.ServerState, len(open))
		for i, b := range open {
			snap.Servers[i] = b.State()
		}
	}
	return snap
}
