package packing

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dbp/internal/item"
)

// itemsOf gathers the server's items, in placement order.
func itemsOf(b *ServerRecord) item.List {
	l := make(item.List, len(b.Pos))
	for j := range b.Pos {
		l[j] = b.Item(j)
	}
	return l
}

// residents counts the items of the server's record active at t.
func residents(b *ServerRecord, t float64) int {
	n := 0
	for _, it := range itemsOf(b) {
		if it.Interval().Contains(t) {
			n++
		}
	}
	return n
}

// A server's record rebuilds its level and residents at any time, from
// Run and from Replay alike.
func TestLevelAtAndItemsAtReconstruction(t *testing.T) {
	l := item.List{mk(1, 0.3, 0, 4), mk(2, 0.4, 2, 6)}
	run := MustRun(NewFirstFit(), l, nil)
	replay, err := Replay(l, map[item.ID]int{1: 7, 2: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range []*Result{run, replay} {
		if res.NumBins() != 1 {
			t.Fatalf("%s: %d servers, want 1", res.Algorithm, res.NumBins())
		}
		b := &res.Bins[0]
		cases := []struct {
			t     float64
			level float64
			n     int
		}{
			{0, 0.3, 1}, {1.9, 0.3, 1}, {2, 0.7, 2}, {3.9, 0.7, 2},
			{4, 0.4, 1}, {5.9, 0.4, 1}, {6, 0, 0},
		}
		for _, c := range cases {
			if got := b.LevelAt(c.t); math.Abs(got-c.level) > 1e-12 {
				t.Errorf("%s: LevelAt(%g) = %g, want %g", res.Algorithm, c.t, got, c.level)
			}
			if got := residents(b, c.t); got != c.n {
				t.Errorf("%s: %d items resident at %g, want %d", res.Algorithm, got, c.t, c.n)
			}
		}
		if len(b.Pos) != 2 || b.Item(0).ID != 1 {
			t.Errorf("%s: the record must list both items, the first placed first", res.Algorithm)
		}
		if b.Item(1).ID != 2 {
			t.Errorf("%s: Pos must list placement order", res.Algorithm)
		}
	}
}

// Every server's Pos is its own window of the run's one position array,
// capped at its length: appending to one server's record reallocates and
// leaves the next server's positions as they were, from Run and from
// Replay. A record copies no item: it reads the Result's own list.
func TestRecordPositionsCapped(t *testing.T) {
	// First Fit puts items 1 and 3 on server 0, items 2 and 4 on server 1,
	// so the two servers' placements interleave.
	l := item.List{mk(1, 0.6, 0, 4), mk(2, 0.6, 1, 6), mk(3, 0.3, 2, 5), mk(4, 0.3, 3, 6)}
	run := MustRun(NewFirstFit(), l, nil)
	replay, err := Replay(l, map[item.ID]int{1: 0, 2: 1, 3: 0, 4: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range []*Result{run, replay} {
		if res.NumBins() != 2 {
			t.Fatalf("%s: %d servers, want 2", res.Algorithm, res.NumBins())
		}
		for k, b := range res.Bins {
			if cap(b.Pos) != len(b.Pos) {
				t.Errorf("%s: server %d Pos has cap %d, len %d", res.Algorithm, k, cap(b.Pos), len(b.Pos))
			}
			for j, p := range b.Pos {
				if b.Item(j).ID != l[p].ID || &res.Items[p] != &l[p] {
					t.Errorf("%s: server %d item %d is not the list's item at position %d", res.Algorithm, k, j, p)
				}
			}
		}
		next := slices.Clone(res.Bins[1].Pos)
		res.Bins[0].Pos = append(res.Bins[0].Pos, 1)
		if !reflect.DeepEqual(res.Bins[1].Pos, next) {
			t.Errorf("%s: appending to server 0 changed server 1's positions to %v, want %v", res.Algorithm, res.Bins[1].Pos, next)
		}
	}
}

// A server lingering under keep-alive holds nothing: its record's usage
// period runs past the last departure, and the level there is zero.
func TestItemsAtDuringLinger(t *testing.T) {
	res := MustRun(NewFirstFit(), item.List{mk(1, 0.5, 0, 2)}, &Options{KeepAlive: 5})
	b := &res.Bins[0]
	if u := b.UsagePeriod(); u.Lo != 0 || u.Hi != 7 {
		t.Fatalf("usage period %v, want [0, 7): the server must linger after its last departure", u)
	}
	if n := residents(b, 3); n != 0 {
		t.Fatalf("%d items during linger, want 0", n)
	}
	if lv := b.LevelAt(3); lv != 0 {
		t.Fatalf("level %g during linger", lv)
	}
}

// Verify is the ground truth every experiment rests on, so each check it
// makes must be able to fail: every case corrupts one fact of a good
// result and expects the error that names it.
func TestVerifyRejectsCorruptResults(t *testing.T) {
	// First Fit puts items 1, 2 and 4 on server 0 (hull [0, 6)) and item 3,
	// which does not fit beside 1 and 2 at t=2, on server 1 (hull [2, 5)).
	scalar := item.List{mk(1, 0.5, 0, 4), mk(2, 0.4, 1, 3), mk(3, 0.6, 2, 5), mk(4, 0.3, 3, 6)}
	vec := func(id item.ID, a, b, arr, dep float64) item.Item {
		return item.Item{ID: id, Size: math.Max(a, b), Sizes: []float64{a, b}, Arrival: arr, Departure: dep}
	}
	vector := item.List{vec(1, 0.5, 0.2, 0, 4), vec(2, 0.3, 0.4, 1, 3)}
	// Each run has a list of its own: a Result reads its items from the
	// list, so a case that corrupts an item must not reach the next case.
	good := func(l item.List, keepAlive float64) *Result {
		res := MustRun(NewFirstFit(), slices.Clone(l), &Options{KeepAlive: keepAlive})
		if err := res.Verify(); err != nil {
			t.Fatalf("the uncorrupted result fails: %v", err)
		}
		return res
	}
	cases := []struct {
		name      string
		l         item.List
		keepAlive float64
		corrupt   func(r *Result)
		want      string
	}{
		{"position in two servers", scalar, 0, func(r *Result) {
			r.Bins[1].Pos = append(r.Bins[1].Pos, r.Bins[0].Pos[0])
		}, "item 1 placed in bins 0 and 1"},
		{"item never placed", scalar, 0, func(r *Result) {
			r.Items = append(r.Items, mk(5, 0.1, 0, 1))
			r.Server = append(r.Server, 0)
		}, "item 5 never placed"},
		{"job in no server", scalar, 0, func(r *Result) {
			r.Bins[0].Pos = slices.Delete(r.Bins[0].Pos, 1, 2) // item 2, inside the hull of 1 and 4
		}, "item 2 never placed"},
		{"position past the list", scalar, 0, func(r *Result) {
			r.Bins[1].Pos[0] = int32(len(r.Items))
		}, "bin 1 holds position 4, outside the 4 items"},
		{"negative position", scalar, 0, func(r *Result) {
			r.Bins[0].Pos[2] = -1
		}, "bin 0 holds position -1"},
		{"position disagrees with Server", scalar, 0, func(r *Result) {
			r.Bins[0].Pos[2], r.Bins[1].Pos[0] = r.Bins[1].Pos[0], r.Bins[0].Pos[2] // items 4 and 3
		}, "item 3 has server 1, but bin 0 holds it"},
		{"over capacity, scalar", scalar, 0, func(r *Result) {
			r.Items[r.Bins[0].Pos[1]].Size = 0.6
		}, "bin 0 over capacity in dim 0"},
		{"over capacity, d=2", vector, 0, func(r *Result) {
			r.Items[r.Bins[0].Pos[1]].Sizes = []float64{0.3, 0.9}
		}, "bin 0 over capacity in dim 1"},
		{"usage period off the hull", scalar, 0, func(r *Result) {
			r.Bins[1].ClosedAt += 0.5
		}, "bin 1 usage period"},
		{"usage period off the hull, keep-alive", scalar, 1, func(r *Result) {
			r.Bins[0].ClosedAt = 6 // the last departure: the keep-alive is missing
		}, "bin 0 usage period"},
		{"Server disagrees with the records", scalar, 0, func(r *Result) {
			r.Server[slices.IndexFunc(r.Items, func(it item.Item) bool { return it.ID == 3 })] = 0
		}, "item 3 has server 0"},
		{"server slice short", scalar, 0, func(r *Result) {
			r.Server = r.Server[:3]
		}, "3 server entries for 4 items"},
		{"wrong total usage", scalar, 0, func(r *Result) {
			r.TotalUsage += 1
		}, "recomputed usage"},
		{"index off its position", scalar, 0, func(r *Result) {
			r.Bins[0], r.Bins[1] = r.Bins[1], r.Bins[0]
		}, "bin at position 0 has index 1"},
	}
	for _, c := range cases {
		res := good(c.l, c.keepAlive)
		c.corrupt(res)
		err := res.Verify()
		if err == nil {
			t.Errorf("%s: Verify accepted the corrupt result", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Verify said %q, want it to say %q", c.name, err, c.want)
		}
	}
}
