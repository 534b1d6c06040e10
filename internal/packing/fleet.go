package packing

import (
	"fmt"
	"sort"

	"dbp/internal/item"
)

// Heterogeneous fleets: real clouds offer several instance sizes. The
// paper normalizes all servers to unit capacity; this extension lets a
// run draw servers from a catalog of capacity tiers (all <= 1, the
// largest conventionally 1.0 so item sizes keep their (0, 1] meaning).
// The packing policy is unchanged — First Fit et al. already consult
// each bin's own capacity — only the decision "what size server to open
// when nothing fits" is new, made by a TypeChooser.

// ServerType is one tier of the fleet catalog.
type ServerType struct {
	Name     string
	Capacity float64 // in (0, 1]
}

// TypeChooser picks the fleet tier (index into fleet) to open for an
// arrival no open server could take. Implementations must return a tier
// whose capacity fits the arrival; the simulator validates.
type TypeChooser func(a Arrival, fleet []ServerType) int

// RightSize returns the chooser that opens the smallest tier fitting the
// arrival — cost-conscious, fragmentation-prone.
func RightSize() TypeChooser {
	return func(a Arrival, fleet []ServerType) int {
		best := -1
		for i, t := range fleet {
			if (item.Item{Size: a.Size}).CheckDemand(t.Capacity, 1) == nil && (best < 0 || t.Capacity < fleet[best].Capacity) {
				best = i
			}
		}
		return best
	}
}

// LargestType returns the chooser that always opens the biggest tier —
// consolidation-friendly, pays for headroom.
func LargestType() TypeChooser {
	return func(a Arrival, fleet []ServerType) int {
		best := 0
		for i, t := range fleet {
			if t.Capacity > fleet[best].Capacity {
				best = i
			}
		}
		return best
	}
}

// validateFleet checks a fleet catalog: at least one tier, capacities in
// (0, 1], sorted copies returned for deterministic reporting.
func validateFleet(fleet []ServerType) ([]ServerType, error) {
	if len(fleet) == 0 {
		return nil, fmt.Errorf("packing: empty fleet")
	}
	out := append([]ServerType(nil), fleet...)
	for _, t := range out {
		if !(t.Capacity > 0) || t.Capacity > 1 {
			return nil, fmt.Errorf("packing: fleet tier %q capacity %g outside (0, 1]", t.Name, t.Capacity)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Capacity < out[j].Capacity })
	return out, nil
}

// RunFleet simulates the online packing with a heterogeneous fleet: when
// the policy opens a server, chooser picks the tier. opt.Capacity is
// ignored, whatever its value: the tiers are the only capacities (an
// arrival's Capacity is 1); the other options apply. Fleet runs are
// scalar: a vector demand, or a size item.CheckDemand refuses at the
// largest tier, is rejected up front as ErrBadDemand.
func RunFleet(algo Algorithm, l item.List, fleet []ServerType, chooser TypeChooser, opt *Options) (*Result, error) {
	fleetSorted, err := validateFleet(fleet)
	if err != nil {
		return nil, err
	}
	if chooser == nil {
		chooser = RightSize()
	}
	if err := l.ValidateCap(fleetSorted[len(fleetSorted)-1].Capacity, 1); err != nil {
		return nil, admission(err)
	}
	return runCore(algo, l, opt, func(a Arrival) (float64, error) {
		idx := chooser(a, fleetSorted)
		if idx < 0 || idx >= len(fleetSorted) {
			return 0, fmt.Errorf("packing: type chooser returned invalid tier %d for item %d", idx, a.ID)
		}
		t := fleetSorted[idx]
		if err := (item.Item{ID: a.ID, Size: a.Size}).CheckDemand(t.Capacity, 1); err != nil {
			return 0, fmt.Errorf("packing: chooser picked tier %q too small: %v", t.Name, err)
		}
		return t.Capacity, nil
	})
}
