package load

import (
	"fmt"

	"dbp/internal/item"
	"dbp/internal/workload"
)

// scriptOp is one load-generator operation. Scripts carry the *structure* of
// a workload — which job arrives or departs next, with what demand —
// while the pacer decides *when* each op is issued on the wall clock.
// Replaying a trace's event order at a different speed preserves its
// concurrency profile (the active-population trajectory), which is
// what stresses the allocator; the trace's own timestamps are not
// replayed.
type scriptOp struct {
	Kind  opKind
	ID    item.ID
	Size  float64
	Sizes []float64
}

// opKind distinguishes arrivals from departures.
type opKind uint8

const (
	opArrive opKind = iota
	opDepart
	numOpKinds
)

// name names the op kind as it appears in results ("arrive"/"depart").
func (k opKind) name() string {
	if k == opArrive {
		return "arrive"
	}
	return "depart"
}

// Script is a self-contained op sequence: every job that arrives in it
// also departs in it, in trace-event order. maxID bounds the job IDs
// used, so replays can re-key subsequent epochs without collisions.
type Script struct {
	ops   []scriptOp
	maxID item.ID
}

// scriptFromList flattens an instance into its arrive/depart event
// sequence, in the simulation engine's processing order (item.List.Steps).
func scriptFromList(l item.List) *Script {
	s := &Script{ops: make([]scriptOp, 0, 2*len(l))}
	for _, it := range l {
		s.maxID = max(s.maxID, it.ID)
	}
	for _, st := range l.Steps(false) {
		it := &l[st.Pos]
		if st.Kind == item.Depart {
			s.ops = append(s.ops, scriptOp{Kind: opDepart, ID: it.ID})
		} else {
			// Copy the demand vector so the script owns its ops: the
			// caller's item.List stays live (rescaling, re-keying, reuse
			// across epochs), and an op aliasing it would replay whatever
			// the caller last wrote there instead of the trace's demand.
			s.ops = append(s.ops, scriptOp{Kind: opArrive, ID: it.ID, Size: it.Size,
				Sizes: append([]float64(nil), it.Sizes...)})
		}
	}
	return s
}

// partition splits the script into n per-client scripts by job ID
// (a job's arrive and depart always land on the same client, in
// order), preserving the global relative order within each client.
// Each client then needs no cross-client coordination to keep every
// depart after its arrive.
func (s *Script) partition(n int) []*Script {
	parts := make([]*Script, n)
	for i := range parts {
		parts[i] = &Script{maxID: s.maxID}
	}
	for _, op := range s.ops {
		c := int(uint64(op.ID) % uint64(n))
		parts[c].ops = append(parts[c].ops, op)
	}
	return parts
}

// GenerateScript builds a script from any registered workload scenario
// (spec "name" or "name:key=value,..." — see workload.List): n jobs
// with duration ratio mu, arrival rate rate (which, together with mean
// duration, fixes the steady-state active population — the trace's
// concurrency profile), seeded for reproducibility. dim > 1 draws
// vector demands. An empty spec defaults to "uniform".
func GenerateScript(spec string, n int, rate, mu float64, seed int64, dim int) (*Script, error) {
	if spec == "" {
		spec = "uniform"
	}
	l, err := workload.FromSpec(spec, n, rate, mu, seed, dim)
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	return scriptFromList(l), nil
}
