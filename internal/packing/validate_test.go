package packing

import (
	"math"
	"testing"

	"dbp/internal/item"
)

// frontEnds are the four ways a demand enters the engine. Each takes a
// list whose last item is the one under test; the stream front end
// feeds the items one by one, in list order, to a stream of dimension
// dim, and returns the first error.
var frontEnds = []struct {
	name string
	run  func(l item.List, dim int) error
}{
	{"Run", func(l item.List, _ int) error {
		_, err := Run(NewFirstFit(), l, nil)
		return err
	}},
	{"RunFleet", func(l item.List, _ int) error {
		_, err := RunFleet(NewFirstFit(), l, []ServerType{{Name: "unit", Capacity: 1}}, nil, nil)
		return err
	}},
	{"Replay", func(l item.List, _ int) error {
		assign := make(map[item.ID]int, len(l))
		for _, it := range l {
			assign[it.ID] = int(it.ID)
		}
		_, err := Replay(l, assign)
		return err
	}},
	{"Stream.Arrive", func(l item.List, dim int) error {
		s := NewStream(NewFirstFit(), 0, dim)
		for _, it := range l {
			if _, _, err := s.Arrive(it.ID, it.Size, it.Sizes, it.Arrival); err != nil {
				return err
			}
		}
		return nil
	}},
}

// TestValidationPerFrontEnd feeds every front end each demand the
// per-arrival admission check rejects, and duplicate IDs in sorted and
// unsorted lists. The batch front ends validate the whole list before
// their loop and Stream.Arrive checks each demand; each case keeps the
// error class it had when the engine checked every arrival, front end by
// front end: Run reports a size out of range as ErrBadDemand and a wrong
// dimension or a non-dominant Size as a plain invalid instance, RunFleet
// reports all five as invalid instances, Replay all but the wrong
// dimension (ErrBadDemand), and Stream.Arrive all five as ErrBadDemand.
func TestValidationPerFrontEnd(t *testing.T) {
	const bad, plain, dup = "demand", "other", "duplicate"
	ok := mk(1, 0.5, 0, 1)
	vec := func(id item.ID, size float64, sizes ...float64) item.Item {
		return item.Item{ID: id, Size: size, Sizes: sizes, Arrival: 0, Departure: 1}
	}
	cases := []struct {
		name string
		l    item.List
		dim  int               // the stream's dimension
		want map[string]string // front end -> errClass
	}{
		{"oversized", item.List{ok, mk(2, 1.5, 0, 1)}, 1,
			map[string]string{"Run": bad, "RunFleet": plain, "Replay": plain, "Stream.Arrive": bad}},
		{"oversized component", item.List{vec(1, 0.5, 0.5, 0.2), vec(2, 1.2, 1.2, 0.2)}, 2,
			map[string]string{"Run": bad, "RunFleet": plain, "Replay": plain, "Stream.Arrive": bad}},
		{"NaN size", item.List{ok, mk(2, math.NaN(), 0, 1)}, 1,
			map[string]string{"Run": bad, "RunFleet": plain, "Replay": plain, "Stream.Arrive": bad}},
		{"negative component", item.List{vec(1, 0.5, 0.5, 0.2), vec(2, 0.5, 0.5, -0.1)}, 2,
			map[string]string{"Run": bad, "RunFleet": plain, "Replay": plain, "Stream.Arrive": bad}},
		{"NaN component", item.List{vec(1, 0.5, 0.5, 0.2), vec(2, 0.5, 0.5, math.NaN())}, 2,
			map[string]string{"Run": bad, "RunFleet": plain, "Replay": plain, "Stream.Arrive": bad}},
		{"scalar in a vector run", item.List{vec(1, 0.5, 0.5, 0.2), mk(2, 0.5, 0, 1)}, 2,
			map[string]string{"Run": plain, "RunFleet": plain, "Replay": bad, "Stream.Arrive": bad}},
		{"vector in a scalar stream", item.List{ok, vec(2, 0.5, 0.5, 0.2)}, 1,
			map[string]string{"Run": plain, "RunFleet": plain, "Replay": bad, "Stream.Arrive": bad}},
		{"non-dominant size", item.List{vec(1, 0.5, 0.5, 0.2), vec(2, 0.5, 0.7, 0.3)}, 2,
			map[string]string{"Run": plain, "RunFleet": plain, "Replay": plain, "Stream.Arrive": bad}},
		{"duplicate IDs, sorted", item.List{ok, mk(2, 0.2, 0, 1), mk(2, 0.2, 2, 3)}, 1,
			map[string]string{"Run": plain, "RunFleet": plain, "Replay": plain, "Stream.Arrive": dup}},
		{"duplicate IDs, unsorted", item.List{mk(3, 0.2, 0, 1), ok, mk(3, 0.2, 0, 2), mk(2, 0.2, 0, 1)}, 1,
			map[string]string{"Run": plain, "RunFleet": plain, "Replay": plain, "Stream.Arrive": dup}},
	}
	for _, c := range cases {
		for _, fe := range frontEnds {
			if got := errClass(fe.run(c.l, c.dim)); got != c.want[fe.name] {
				t.Errorf("%s via %s: got %s, want %s", c.name, fe.name, got, c.want[fe.name])
			}
		}
	}
}

// capacityProbe is First Fit that records the Capacity of every arrival
// it is shown.
type capacityProbe struct {
	Algorithm
	seen []float64
}

func (p *capacityProbe) Place(a Arrival, f Fleet) *binsBin {
	p.seen = append(p.seen, a.Capacity)
	return p.Algorithm.Place(a, f)
}

// TestRunFleetIgnoresCapacity pins RunFleet's documented reading of
// Options: the catalog's tiers are the only capacities, so an item that
// fits a tier runs whatever opt.Capacity says, a capacity Run would
// refuse is not looked at, and every arrival's Capacity is 1.
func TestRunFleetIgnoresCapacity(t *testing.T) {
	l := item.List{mk(1, 0.7, 0, 2), mk(2, 0.4, 1, 3)}
	fleet := []ServerType{{Name: "small", Capacity: 0.5}, {Name: "unit", Capacity: 1}}
	for _, c := range []float64{0.5, 2, math.NaN(), -1} {
		probe := &capacityProbe{Algorithm: NewFirstFit()}
		res, err := RunFleet(probe, l, fleet, nil, &Options{Capacity: c})
		if err != nil {
			t.Fatalf("opt.Capacity %g: %v", c, err)
		}
		if len(probe.seen) != len(l) || probe.seen[0] != 1 || probe.seen[1] != 1 {
			t.Fatalf("opt.Capacity %g: arrivals showed capacities %v, want 1 each", c, probe.seen)
		}
		if err := res.Verify(); err != nil {
			t.Fatalf("opt.Capacity %g: %v", c, err)
		}
		if res.NumBins() != 2 || res.Bins[0].Capacity != 1 || res.Bins[1].Capacity != 0.5 {
			t.Fatalf("opt.Capacity %g: servers %+v, want a unit server then a small one", c, res.Bins)
		}
	}
}
