package packing

import (
	"fmt"

	"dbp/internal/bins"
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
// labeling is accepted. The assignment runs as a policy on the
// simulator's own loop, so an over-capacity placement fails as the
// engine's misplacement check does (ErrPolicyMisplace). A demand
// item.CheckDemand refuses on a unit server, or of another dimension
// than the first item's, is ErrBadDemand.
func Replay(l item.List, assign map[item.ID]int) (*Result, error) {
	if err := l.Validate(); err != nil {
		return nil, admission(err)
	}
	for _, it := range l {
		if _, ok := assign[it.ID]; !ok {
			return nil, fmt.Errorf("packing: item %d has no assignment", it.ID)
		}
	}
	return runCore(&follow{assign: assign}, l, &Options{Engine: EngineLinear}, nil)
}

// follow is the policy Replay runs: it places each job in the server its
// label names while that server is open, and otherwise has the engine
// open one — the label's first job, or its first after the label's
// server closed (the external packing reuses the label for a fresh
// server).
type follow struct {
	assign map[item.ID]int
	open   map[int]*bins.Bin // label -> its current server
	label  int               // the label of the job being placed
}

func (f *follow) Name() string { return "Replay" }

func (f *follow) Reset() { f.open = make(map[int]*bins.Bin) }

func (f *follow) Place(a Arrival, _ Fleet) *bins.Bin {
	f.label = f.assign[a.ID]
	if b := f.open[f.label]; b != nil && b.IsOpen() {
		return b
	}
	return nil
}

func (f *follow) BinOpened(b *bins.Bin) { f.open[f.label] = b }
