package packing

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dbp/internal/item"
)

// resetList is a seeded instance whose jobs overlap enough that every
// policy keeps several servers open at once.
func resetList() item.List {
	rng := rand.New(rand.NewSource(46))
	l := make(item.List, 240)
	at := 0.0
	for i := range l {
		at += rng.ExpFloat64() / 4
		l[i] = mk(item.ID(i+1), 0.05+0.55*rng.Float64(), at, at+1+7*rng.Float64())
	}
	return l
}

// streamPlacements feeds the first n events of l to a fresh stream of
// algo and returns each event's (server, opened-or-closed) outcome and
// the stream's final snapshot, the policy's saved state included.
func streamPlacements(t *testing.T, algo Algorithm, kind EngineKind, l item.List, n int) ([]string, Snapshot) {
	t.Helper()
	s, err := NewStreamEngine(algo, 0, 0, 0, kind)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, st := range l.Steps(true)[:n] {
		it, at := l[st.Pos], st.Time(l)
		var server int
		var flag bool
		if st.Kind == item.Arrive {
			server, flag, err = s.Arrive(it.ID, it.Size, nil, at)
		} else {
			server, flag, err = s.Depart(it.ID, at)
		}
		if err != nil {
			t.Fatalf("%s: %v", algo.Name(), err)
		}
		out = append(out, fmt.Sprintf("%v %d %d %v", st.Kind, it.ID, server, flag))
	}
	return out, s.Snapshot()
}

// TestReusedPolicyPlacesAsFresh holds the engine's reset hook to its
// purpose: one policy value reused on a second Stream, after the first
// left servers open, and across two Runs, places bit-identically to a
// fresh instance, and the second stream ends in the fresh one's snapshot
// — every registered policy and Replay's follow, on both engines. A
// policy whose Reset stops clearing its state (an emptied body, or a
// method that no longer matches the resetter interface) would carry a
// bin of the previous ledger, or its random draws, into the next stream.
func TestReusedPolicyPlacesAsFresh(t *testing.T) {
	l := resetList()
	ff := MustRun(NewFirstFit(), l, nil)
	policies := map[string]func() Algorithm{
		"replay": func() Algorithm { return &follow{assign: assignment(ff)} },
	}
	clairvoyant := map[string]bool{}
	for _, e := range registry {
		policies[e.name] = e.build
		clairvoyant[e.name] = e.family == familyClairvoyant
	}
	events := 2 * len(l)
	for name, build := range policies {
		for _, kind := range []EngineKind{EngineIndexed, EngineLinear} {
			label := fmt.Sprintf("%s/%s", name, kind)
			opts := &Options{Engine: kind}
			fresh := MustRun(build(), l, opts)
			reused := build()
			for run := 1; run <= 2; run++ {
				res := MustRun(reused, l, opts)
				if !slices.Equal(res.Server, fresh.Server) ||
					math.Float64bits(res.TotalUsage) != math.Float64bits(fresh.TotalUsage) {
					t.Errorf("%s: Run %d of a reused instance packs unlike a fresh one", label, run)
				}
			}
			if clairvoyant[name] {
				continue // a stream carries no departure times
			}
			want, wantSnap := streamPlacements(t, build(), kind, l, events)
			// The first stream stops while its servers are open: early,
			// with room left in them, and halfway.
			for _, cut := range []int{8, events / 2} {
				reused = build()
				streamPlacements(t, reused, kind, l, cut)
				got, gotSnap := streamPlacements(t, reused, kind, l, events)
				if !reflect.DeepEqual(gotSnap, wantSnap) {
					t.Errorf("%s, cut %d: a reused instance's second stream ends in policy state %+v, fresh %+v",
						label, cut, gotSnap.PolicyState, wantSnap.PolicyState)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("%s, cut %d: a reused instance's second stream diverges at event %d: %s, fresh %s",
							label, cut, i, got[i], want[i])
						break
					}
				}
			}
		}
	}
}
