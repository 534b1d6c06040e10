package packing

import (
	"math"
	"sort"

	"dbp/internal/bins"
)

// PolicyState is the serializable retained state of a bounded-state
// policy: which open servers it holds references to, keyed by server
// index (the only stable cross-process name for a bin), plus a draw
// counter for seeded randomized policies. Which fields are meaningful
// depends on the policy; see each SaveState.
type PolicyState struct {
	// Bins is an ordered list of open-server indices (Next Fit's one
	// available server, Next-k Fit's FIFO, Hybrid Next Fit's per-class
	// slot with -1 for "none").
	Bins []int `json:"bins,omitempty"`
	// Class maps open-server index to size class (Hybrid First Fit).
	Class map[int]int `json:"class,omitempty"`
	// Draws counts consumed random draws (Random Fit).
	Draws uint64 `json:"draws,omitempty"`
}

// statefulAlgorithm is a policy whose placement decisions depend on
// retained references to specific bins (or other evolving state), so
// that a snapshot can carry the policy along with the fleet. Stateless
// policies (First Fit, Best Fit, ...) place from the fleet alone and
// need no save/restore.
type statefulAlgorithm interface {
	// SaveState captures the policy's current state. References to bins
	// that have closed are dropped: every policy here treats a closed
	// retained bin exactly like no bin at all on its next Place, so the
	// omission is behaviorally invisible.
	SaveState() PolicyState

	// RestoreState rewinds the policy to a saved state. bin resolves an
	// open server index to its restored *bins.Bin, returning nil for
	// unknown indices (which makes RestoreState fail: a saved state may
	// only reference servers the snapshot listed as open).
	RestoreState(st PolicyState, bin func(index int) *bins.Bin) error
}

// RestoreStream rebuilds a stream from a restorable Snapshot so that it
// continues bit-identically to the stream the snapshot was taken from:
// identical placements, identical error results, and an identical
// Snapshot after any common suffix of events. algo must be an instance of
// the policy named by snap.Policy (a policy with run state is reset and
// then handed snap.PolicyState).
//
// Bit-identity holds because nothing float-bearing is recomputed: server
// levels, the closed-usage accumulator, and every timestamp are restored
// verbatim, and the one history-dependent ordering (closing several
// expired servers in one clock advance) is canonicalized by the ledger
// (see bins.Ledger.CloseExpired).
func RestoreStream(algo Algorithm, snap Snapshot) (*Stream, error) {
	kind := EngineKind(snap.Engine)
	if !kind.valid() {
		return nil, badEngine(kind)
	}
	if kind == "" {
		kind = EngineIndexed
	}
	if snap.Policy != "" && snap.Policy != algo.Name() {
		return nil, failf(ErrSnapshotMismatch,
			"packing: snapshot was taken under policy %s, restoring with %s", snap.Policy, algo.Name())
	}
	capacity := snap.Capacity
	if capacity == 0 {
		capacity = 1
	}
	dim := snap.Dim
	if dim == 0 {
		dim = 1
	}
	if len(snap.Servers) != snap.OpenServers {
		return nil, failf(ErrSnapshotMismatch,
			"packing: snapshot lists %d servers but claims %d open", len(snap.Servers), snap.OpenServers)
	}
	if snap.Events > 0 && (math.IsNaN(snap.Now) || math.IsInf(snap.Now, 0)) {
		return nil, failf(ErrSnapshotMismatch, "packing: snapshot clock %g is not finite", snap.Now)
	}
	// The snapshot stays caller-owned: RestoreLedger copies what it keeps.
	ledger, err := bins.RestoreLedger(capacity, dim, snap.KeepAlive, kind != EngineLinear,
		snap.ServersUsed, snap.PeakServers, snap.ClosedUsage, snap.Servers)
	if err != nil {
		return nil, failf(ErrSnapshotMismatch, "packing: %v", err)
	}
	// The snapshot's own objective total must reproduce from the restored
	// accumulators — a cheap end-to-end check that nothing drifted.
	if got := ledger.TotalUsage(snap.Now); snap.Events > 0 && got != snap.UsageTime {
		return nil, failf(ErrSnapshotMismatch,
			"packing: restored usage %v != snapshot usage %v", got, snap.UsageTime)
	}
	e := engineOn(algo, ledger, kind, false)
	if snap.PolicyState != nil {
		if e.stateful == nil {
			return nil, failf(ErrSnapshotMismatch,
				"packing: snapshot carries policy state but %s retains none", algo.Name())
		}
		bs := ledger.OpenBins()
		lookup := func(index int) *bins.Bin {
			i := sort.Search(len(bs), func(i int) bool { return bs[i].Index >= index })
			if i < len(bs) && bs[i].Index == index {
				return bs[i]
			}
			return nil
		}
		if err := e.stateful.RestoreState(*snap.PolicyState, lookup); err != nil {
			return nil, failf(ErrSnapshotMismatch, "packing: %v", err)
		}
	}
	return &Stream{eng: e, now: snap.Now, nEvent: snap.Events}, nil
}
