package packing

import (
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"dbp/internal/bins"
	"dbp/internal/item"
)

// testEv is one scripted stream event for the restore property tests.
type testEv struct {
	kind  string // "arrive" | "depart"
	id    item.ID
	size  float64
	sizes []float64
	t     float64
}

// genEvents scripts a keep-alive-exercising workload with deliberate
// rejections mixed in (duplicate arrivals, unknown departures, oversized
// demands) — rejected events still advance the stream clock, so a
// restore that mishandled them would show up as a state divergence.
func genEvents(seed int64, n, dim int) []testEv {
	rng := rand.New(rand.NewSource(seed))
	var evs []testEv
	var live []item.ID
	next := item.ID(1)
	now := 0.0
	for len(evs) < n {
		if rng.Intn(4) > 0 {
			now += rng.Float64() * 0.8
		}
		switch r := rng.Float64(); {
		case r < 0.05 && len(live) > 0: // duplicate arrive: rejected
			evs = append(evs, testEv{kind: "arrive", id: live[rng.Intn(len(live))], size: 0.2, t: now})
		case r < 0.10: // unknown depart: rejected
			evs = append(evs, testEv{kind: "depart", id: 1 << 40, t: now})
		case r < 0.13 && dim == 1: // oversized arrive: rejected
			evs = append(evs, testEv{kind: "arrive", id: next, size: 1.7, t: now})
			next++
		case r < 0.55 || len(live) == 0: // fresh arrive
			ev := testEv{kind: "arrive", id: next, size: 0.05 + rng.Float64()*0.6, t: now}
			if dim > 1 {
				ev.sizes = make([]float64, dim)
				ev.sizes[0] = ev.size
				for d := 1; d < dim; d++ {
					ev.sizes[d] = rng.Float64() * ev.size
				}
			}
			evs = append(evs, ev)
			live = append(live, next)
			next++
		default: // depart a live job
			i := rng.Intn(len(live))
			evs = append(evs, testEv{kind: "depart", id: live[i], t: now})
			live = append(live[:i], live[i+1:]...)
		}
		if rng.Intn(40) == 0 {
			now += 3 // jump past several keep-alive expiries at once
		}
	}
	return evs
}

// errClass collapses an error to its sentinel class for comparison.
func errClass(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrDuplicateJob):
		return "duplicate"
	case errors.Is(err, ErrUnknownJob):
		return "unknown"
	case errors.Is(err, ErrBadDemand):
		return "demand"
	case errors.Is(err, ErrTimeRegression):
		return "time"
	case errors.Is(err, ErrPolicyMisplace):
		return "misplace"
	}
	return "other"
}

func applyEv(s *Stream, ev testEv) (srv int, flag bool, class string) {
	if ev.kind == "arrive" {
		srv, opened, err := s.Arrive(ev.id, ev.size, ev.sizes, ev.t)
		return srv, opened, errClass(err)
	}
	srv, closed, err := s.Depart(ev.id, ev.t)
	return srv, closed, errClass(err)
}

// roundTrip pushes a snapshot through JSON, as the durable snapshot
// files do; float64 survives encoding/json bit-exactly.
func roundTrip(t *testing.T, snap Snapshot) Snapshot {
	t.Helper()
	buf, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("marshal snapshot: %v", err)
	}
	var out Snapshot
	if err := json.Unmarshal(buf, &out); err != nil {
		t.Fatalf("unmarshal snapshot: %v", err)
	}
	return out
}

// TestRestoreStreamBitIdentical is the restore property test: for every
// standard policy, run a workload to a midpoint, snapshot, restore a
// fresh stream from the JSON round-tripped snapshot, then drive both
// streams through the identical suffix. Every result (server index,
// opened/closed flag, error class) and the final drained snapshots must
// match bit for bit.
func TestRestoreStreamBitIdentical(t *testing.T) {
	names := make([]string, 0, 20)
	for name := range Standard() {
		names = append(names, name)
	}
	for name := range Vector() {
		names = append(names, name)
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, tc := range []struct {
				label     string
				dim       int
				keepAlive float64
			}{
				{"scalar", 1, 0},
				{"keepalive", 1, 0.6},
				{"vector", 2, 0.6},
				{"vector4", 4, 0.3},
			} {
				algo, err := ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				ref := NewStreamKeepAlive(algo, 1, tc.dim, tc.keepAlive)
				evs := genEvents(11+int64(len(name)), 400, tc.dim)
				mid := len(evs) * 3 / 5
				for _, ev := range evs[:mid] {
					applyEv(ref, ev)
				}
				snap := ref.Snapshot()

				fresh, err := ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				restored, err := RestoreStream(fresh, roundTrip(t, snap))
				if err != nil {
					t.Fatalf("%s: RestoreStream: %v", tc.label, err)
				}
				if got := restored.Snapshot(); !reflect.DeepEqual(got, snap) {
					t.Fatalf("%s: restored snapshot differs:\n got %+v\nwant %+v", tc.label, got, snap)
				}
				for k, ev := range evs[mid:] {
					rs, rf, rc := applyEv(ref, ev)
					gs, gf, gc := applyEv(restored, ev)
					if rs != gs || rf != gf || rc != gc {
						t.Fatalf("%s: suffix event %d (%+v): ref (%d,%v,%q) != restored (%d,%v,%q)",
							tc.label, k, ev, rs, rf, rc, gs, gf, gc)
					}
				}
				ref.Shutdown()
				restored.Shutdown()
				if a, b := ref.Snapshot(), restored.Snapshot(); !reflect.DeepEqual(a, b) {
					t.Fatalf("%s: drained snapshots differ:\n ref      %+v\n restored %+v", tc.label, a, b)
				}
				if err := ref.Ledger().CheckInvariants(); err != nil {
					t.Fatalf("%s: reference invariants: %v", tc.label, err)
				}
				if err := restored.Ledger().CheckInvariants(); err != nil {
					t.Fatalf("%s: restored invariants: %v", tc.label, err)
				}
			}
		})
	}
}

// TestRestoreStreamLinearEngine pins restore on the linear reference
// engine (no index to rebuild, same exact semantics).
func TestRestoreStreamLinearEngine(t *testing.T) {
	ref, err := NewStreamEngine(NewFirstFit(), 1, 1, 0.5, EngineLinear)
	if err != nil {
		t.Fatal(err)
	}
	evs := genEvents(7, 300, 1)
	mid := len(evs) / 2
	for _, ev := range evs[:mid] {
		applyEv(ref, ev)
	}
	snap := ref.Snapshot()
	if snap.Engine != string(EngineLinear) {
		t.Fatalf("snapshot engine = %q", snap.Engine)
	}
	restored, err := RestoreStream(NewFirstFit(), roundTrip(t, snap))
	if err != nil {
		t.Fatal(err)
	}
	for k, ev := range evs[mid:] {
		rs, rf, rc := applyEv(ref, ev)
		gs, gf, gc := applyEv(restored, ev)
		if rs != gs || rf != gf || rc != gc {
			t.Fatalf("suffix event %d: ref (%d,%v,%q) != restored (%d,%v,%q)", k, rs, rf, rc, gs, gf, gc)
		}
	}
	if a, b := ref.Snapshot(), restored.Snapshot(); !reflect.DeepEqual(a, b) {
		t.Fatalf("snapshots differ:\n ref      %+v\n restored %+v", a, b)
	}
}

// TestAdvanceMatchesRejectedEvent pins the tick-replay contract the WAL
// relies on: an event that was rejected after advancing the clock
// (duplicate, unknown, bad demand) mutates the stream exactly like a
// bare Advance at the same time.
func TestAdvanceMatchesRejectedEvent(t *testing.T) {
	mk := func() *Stream {
		s := NewStreamKeepAlive(NewFirstFit(), 1, 1, 0.5)
		s.Arrive(1, 0.4, nil, 0)
		s.Arrive(2, 0.9, nil, 1)
		s.Depart(2, 2) // server 1 lingers until 2.5
		return s
	}
	a, b := mk(), mk()
	if _, _, err := a.Arrive(1, 0.3, nil, 3); !errors.Is(err, ErrDuplicateJob) {
		t.Fatalf("want duplicate rejection, got %v", err)
	}
	if err := b.Advance(3); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.Depart(77, 3.5); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("want unknown rejection, got %v", err)
	}
	if err := b.Advance(3.5); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.Arrive(9, 42, nil, 4); !errors.Is(err, ErrBadDemand) {
		t.Fatalf("want demand rejection, got %v", err)
	}
	if err := b.Advance(4); err != nil {
		t.Fatal(err)
	}
	// A rejected regression mutates nothing and must not be replayed.
	if _, _, err := a.Arrive(9, 0.1, nil, 1); !errors.Is(err, ErrTimeRegression) {
		t.Fatalf("want time rejection, got %v", err)
	}
	if err := b.Advance(1); !errors.Is(err, ErrTimeRegression) {
		t.Fatalf("Advance(1): want time rejection, got %v", err)
	}
	if x, y := a.Snapshot(), b.Snapshot(); !reflect.DeepEqual(x, y) {
		t.Fatalf("snapshots diverged:\n rejected %+v\n ticked   %+v", x, y)
	}
}

// TestRestoreStreamCopiesSnapshot is the aliasing regression test: a
// restored stream must own its float state outright, so a caller that
// mutates (or reuses as scratch) the snapshot's Levels and Sizes slices
// AFTER RestoreStream returns must not perturb the stream. The bug this
// pins: RestoreStream handing sv.Levels/jb.Sizes straight through to
// bins.RestoreLedger, which adopts them — scribbling the snapshot then
// corrupted live server levels and resident jobs' demand vectors, so
// later departs subtracted garbage.
func TestRestoreStreamCopiesSnapshot(t *testing.T) {
	evs := genEvents(23, 300, 2)
	mid := len(evs) * 3 / 5
	ref := NewStreamKeepAlive(NewFirstFit(), 1, 2, 0.6)
	for _, ev := range evs[:mid] {
		applyEv(ref, ev)
	}
	snap := ref.Snapshot()

	restored, err := RestoreStream(NewFirstFit(), snap)
	if err != nil {
		t.Fatal(err)
	}
	// Scribble over every float slice the snapshot holds, as a caller
	// recycling the snapshot's buffers would.
	scribbled := false
	for i := range snap.Servers {
		for d := range snap.Servers[i].Levels {
			snap.Servers[i].Levels[d] = 17.5
			scribbled = true
		}
		for j := range snap.Servers[i].Active {
			for d := range snap.Servers[i].Active[j].Sizes {
				snap.Servers[i].Active[j].Sizes[d] = -3.25
				scribbled = true
			}
		}
	}
	if !scribbled {
		t.Fatal("workload left no open servers at the midpoint; nothing exercised")
	}
	if err := restored.Ledger().CheckInvariants(); err != nil {
		t.Fatalf("invariants broken by snapshot mutation: %v", err)
	}
	// The restored stream must now track the reference bit for bit
	// through the suffix — including departs, which subtract each
	// resident job's Sizes from its server's levels.
	for k, ev := range evs[mid:] {
		rs, rf, rc := applyEv(ref, ev)
		gs, gf, gc := applyEv(restored, ev)
		if rs != gs || rf != gf || rc != gc {
			t.Fatalf("suffix event %d (%+v): ref (%d,%v,%q) != restored (%d,%v,%q)",
				k, ev, rs, rf, rc, gs, gf, gc)
		}
	}
	if a, b := ref.Snapshot(), restored.Snapshot(); !reflect.DeepEqual(a, b) {
		t.Fatalf("snapshots diverged after snapshot scribble:\n ref      %+v\n restored %+v", a, b)
	}
}

// TestRestoreStreamRejectsMismatch covers the refusal paths: wrong
// policy, inconsistent open-server count, and a usage total that does
// not reproduce from the restored accumulators.
func TestRestoreStreamRejectsMismatch(t *testing.T) {
	s := NewStream(NewFirstFit(), 1, 1)
	s.Arrive(1, 0.5, nil, 0)
	s.Arrive(2, 0.7, nil, 1)
	snap := s.Snapshot()

	if _, err := RestoreStream(NewBestFit(), snap); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("wrong policy: got %v", err)
	}
	bad := snap
	bad.OpenServers = 3
	if _, err := RestoreStream(NewFirstFit(), bad); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("bad open count: got %v", err)
	}
	bad = snap
	bad.UsageTime += 0.125
	if _, err := RestoreStream(NewFirstFit(), bad); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("bad usage: got %v", err)
	}
	bad = snap
	bad.PeakServers = 1
	if _, err := RestoreStream(NewFirstFit(), bad); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("bad peak: got %v", err)
	}
	if _, err := RestoreStream(NewFirstFit(), Snapshot{Engine: "warp"}); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

// TestRestoreStreamRejectsContradictoryServer hand-edits the two fields
// of a real snapshot's server that repeat what the rest of its record
// says — jobs (the length of active) and level (levels[0]) — and requires
// each edit to be refused rather than restored.
func TestRestoreStreamRejectsContradictoryServer(t *testing.T) {
	s := NewStream(NewFirstFit(), 1, 2)
	s.Arrive(1, 0.5, []float64{0.5, 0.25}, 0)
	s.Arrive(2, 0.25, []float64{0.125, 0.25}, 1)
	snap := s.Snapshot()
	if _, err := RestoreStream(NewFirstFit(), roundTrip(t, snap)); err != nil {
		t.Fatalf("unedited snapshot: %v", err)
	}
	for name, edit := range map[string]func(*bins.ServerState){
		"jobs":  func(sv *bins.ServerState) { sv.Jobs++ },
		"level": func(sv *bins.ServerState) { sv.Level += 0.125 },
	} {
		bad := roundTrip(t, snap)
		edit(&bad.Servers[0])
		if _, err := RestoreStream(NewFirstFit(), bad); !errors.Is(err, ErrSnapshotMismatch) {
			t.Errorf("edited %s: got %v, want ErrSnapshotMismatch", name, err)
		}
	}
}
