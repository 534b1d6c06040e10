package packing

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dbp/internal/item"
)

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
			if got := len(b.ItemsAt(c.t)); got != c.n {
				t.Errorf("%s: ItemsAt(%g) has %d items, want %d", res.Algorithm, c.t, got, c.n)
			}
		}
		if len(b.Items) != 2 || b.Items[0].ID != 1 {
			t.Errorf("%s: the record must list both items, the first placed first", res.Algorithm)
		}
		if b.Items[1].ID != 2 {
			t.Errorf("%s: Items must list placement order", res.Algorithm)
		}
	}
}

// Every server's Items is its own window of the run's one item array,
// capped at its length: appending to one server's record reallocates and
// leaves the next server's items as they were, from Run and from Replay.
func TestRecordItemsCapped(t *testing.T) {
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
			if cap(b.Items) != len(b.Items) {
				t.Errorf("%s: server %d Items has cap %d, len %d", res.Algorithm, k, cap(b.Items), len(b.Items))
			}
		}
		next := slices.Clone(res.Bins[1].Items)
		res.Bins[0].Items = append(res.Bins[0].Items, mk(5, 0.1, 7, 8))
		if !reflect.DeepEqual(res.Bins[1].Items, next) {
			t.Errorf("%s: appending to server 0 changed server 1's items to %v, want %v", res.Algorithm, res.Bins[1].Items, next)
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
	if n := len(b.ItemsAt(3)); n != 0 {
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
	good := func(l item.List, keepAlive float64) *Result {
		res := MustRun(NewFirstFit(), l, &Options{KeepAlive: keepAlive})
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
		{"item in two servers", scalar, 0, func(r *Result) {
			r.Bins[1].Items = append(r.Bins[1].Items, r.Bins[0].Items[0])
		}, "item 1 placed in bins 0 and 1"},
		{"item never placed", scalar, 0, func(r *Result) {
			r.Items = append(append(item.List(nil), r.Items...), mk(5, 0.1, 0, 1))
		}, "item 5 never placed"},
		{"over capacity, scalar", scalar, 0, func(r *Result) {
			r.Bins[0].Items[1].Size = 0.6
		}, "bin 0 over capacity in dim 0"},
		{"over capacity, d=2", vector, 0, func(r *Result) {
			r.Bins[0].Items[1].Sizes = []float64{0.3, 0.9}
		}, "bin 0 over capacity in dim 1"},
		{"usage period off the hull", scalar, 0, func(r *Result) {
			r.Bins[1].ClosedAt += 0.5
		}, "bin 1 usage period"},
		{"usage period off the hull, keep-alive", scalar, 1, func(r *Result) {
			r.Bins[0].ClosedAt = 6 // the last departure: the keep-alive is missing
		}, "bin 0 usage period"},
		{"assignment disagrees", scalar, 0, func(r *Result) {
			r.Assignment[3] = 0
		}, "assignment map disagrees for item 3"},
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
