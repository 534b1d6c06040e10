package packing

import (
	"math"
	"testing"

	"dbp/internal/bins"
	"dbp/internal/item"
)

// frontEnds are the four ways a demand enters the engine. Each takes a
// list whose last item is the one under test, and the capacity and
// dimension of the servers: Run packs on that capacity, RunFleet on a
// single tier of it, and the stream front end feeds the items one by one,
// in list order, to a stream of that capacity and dimension and returns
// the first error. Replay packs on unit servers only (it has no capacity
// option).
var frontEnds = []struct {
	name     string
	unitOnly bool
	run      func(l item.List, capacity float64, dim int) error
}{
	{"Run", false, func(l item.List, capacity float64, _ int) error {
		_, err := Run(NewFirstFit(), l, &Options{Capacity: capacity})
		return err
	}},
	{"RunFleet", false, func(l item.List, capacity float64, _ int) error {
		_, err := RunFleet(NewFirstFit(), l, []ServerType{{Name: "only", Capacity: capacity}}, nil, nil)
		return err
	}},
	{"Replay", true, func(l item.List, _ float64, _ int) error {
		assign := make(map[item.ID]int, len(l))
		for _, it := range l {
			assign[it.ID] = int(it.ID)
		}
		_, err := Replay(l, assign)
		return err
	}},
	{"Stream.Arrive", false, func(l item.List, capacity float64, dim int) error {
		s := NewStream(NewFirstFit(), capacity, dim)
		for _, it := range l {
			if _, _, err := s.Arrive(it.ID, it.Size, it.Sizes, it.Arrival); err != nil {
				return err
			}
		}
		return nil
	}},
}

// TestValidationPerFrontEnd feeds every front end each demand the
// admission rule (item.CheckDemand) rejects, and duplicate IDs in sorted
// and unsorted lists. Every front end reports a bad demand as
// ErrBadDemand, a size a hair over capacity included (no tolerance);
// RunFleet runs scalar jobs only, so it refuses a vector demand the same
// way. A duplicate ID is a malformed instance on the batch front ends
// (a plain error) and a runtime event on a stream (ErrDuplicateJob).
func TestValidationPerFrontEnd(t *testing.T) {
	const bad, plain, dup = "demand", "other", "duplicate"
	ok := mk(1, 0.5, 0, 1)
	vec := func(id item.ID, size float64, sizes ...float64) item.Item {
		return item.Item{ID: id, Size: size, Sizes: sizes, Arrival: 0, Departure: 1}
	}
	batch := func(class string) map[string]string {
		return map[string]string{"Run": plain, "RunFleet": plain, "Replay": plain, "Stream.Arrive": class}
	}
	cases := []struct {
		name     string
		l        item.List
		capacity float64
		dim      int               // the stream's dimension
		want     map[string]string // front end -> errClass; nil: bad on all four
	}{
		{"oversized", item.List{ok, mk(2, 1.5, 0, 1)}, 1, 1, nil},
		{"oversized component", item.List{vec(1, 0.5, 0.5, 0.2), vec(2, 1.2, 1.2, 0.2)}, 1, 2, nil},
		{"NaN size", item.List{ok, mk(2, math.NaN(), 0, 1)}, 1, 1, nil},
		{"negative component", item.List{vec(1, 0.5, 0.5, 0.2), vec(2, 0.5, 0.5, -0.1)}, 1, 2, nil},
		{"NaN component", item.List{vec(1, 0.5, 0.5, 0.2), vec(2, 0.5, 0.5, math.NaN())}, 1, 2, nil},
		{"scalar in a vector run", item.List{vec(1, 0.5, 0.5, 0.2), mk(2, 0.5, 0, 1)}, 1, 2, nil},
		{"vector in a scalar stream", item.List{ok, vec(2, 0.5, 0.5, 0.2)}, 1, 1, nil},
		{"non-dominant size", item.List{vec(1, 0.5, 0.5, 0.2), vec(2, 0.5, 0.7, 0.3)}, 1, 2, nil},
		{"a hair over unit capacity", item.List{ok, mk(2, 1+bins.Eps/2, 0, 1)}, 1, 1, nil},
		{"a hair over capacity 0.5", item.List{mk(1, 0.25, 0, 1), mk(2, 0.5+bins.Eps/2, 0, 1)}, 0.5, 1, nil},
		{"duplicate IDs, sorted", item.List{ok, mk(2, 0.2, 0, 1), mk(2, 0.2, 2, 3)}, 1, 1, batch(dup)},
		{"duplicate IDs, unsorted", item.List{mk(3, 0.2, 0, 1), ok, mk(3, 0.2, 0, 2), mk(2, 0.2, 0, 1)}, 1, 1, batch(dup)},
	}
	for _, c := range cases {
		for _, fe := range frontEnds {
			if fe.unitOnly && c.capacity != 1 {
				continue
			}
			want := bad
			if c.want != nil {
				want = c.want[fe.name]
			}
			if got := errClass(fe.run(c.l, c.capacity, c.dim)); got != want {
				t.Errorf("%s via %s: got %s, want %s", c.name, fe.name, got, want)
			}
		}
	}
}

// TestRunFleetOpensATierThatHolds: RightSize and RunFleet's check of the
// chosen tier admit by the same rule as every front end, so a job a hair
// over the small tier opens the unit tier rather than a small server it
// would fill past its capacity.
func TestRunFleetOpensATierThatHolds(t *testing.T) {
	l := item.List{mk(1, 0.5+bins.Eps/2, 0, 1)}
	fleet := []ServerType{{Name: "half", Capacity: 0.5}, {Name: "unit", Capacity: 1}}
	res, err := RunFleet(NewFirstFit(), l, fleet, RightSize(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumBins() != 1 || res.Bins[0].Capacity != 1 {
		t.Fatalf("servers %+v, want one unit server", res.Bins)
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

// FuzzDemandRule holds the four front ends to one demand rule. Each input
// is a list of two jobs at capacity 1 or 0.5: an anchor of dimension 1–3
// that fits, then the job under test, of dimension 1–3, its components
// drawn from boundary values around the capacity and its Size either its
// largest component or another such value. Run, Replay (at unit capacity,
// its only one), Stream.Arrive and — when both jobs are scalar — RunFleet
// on a single tier of the capacity must all accept the list, or all
// reject it as ErrBadDemand, exactly when the rule spelled out below
// refuses the job: a size outside (0, capacity], a component outside
// [0, capacity], another dimension than the anchor's, or a Size that is
// not the largest component.
func FuzzDemandRule(f *testing.F) {
	for capSel := range uint8(2) {
		for v := range uint8(11) {
			f.Add(capSel, uint8(0), v, uint8(9), uint8(9), uint8(0), true) // scalar
		}
		f.Add(capSel, uint8(4), uint8(2), uint8(9), uint8(0), uint8(9), true)  // d = 2, dominant
		f.Add(capSel, uint8(4), uint8(2), uint8(9), uint8(0), uint8(9), false) // d = 2, Size a smaller component
		f.Add(capSel, uint8(4), uint8(5), uint8(8), uint8(0), uint8(9), true)  // d = 2, a component a hair over
		f.Add(capSel, uint8(1), uint8(9), uint8(9), uint8(9), uint8(0), true)  // scalar job in a d = 2 run
		f.Add(capSel, uint8(8), uint8(3), uint8(10), uint8(1), uint8(2), false)
	}
	f.Fuzz(func(t *testing.T, capSel, dims, v0, v1, v2, sizeSel uint8, dominant bool) {
		c := []float64{1, 0.5}[capSel%2]
		vals := []float64{0, math.Copysign(0, -1), c, math.Nextafter(c, 0), math.Nextafter(c, 2),
			c + bins.Eps/2, c + 2*bins.Eps, math.NaN(), -c / 4, c / 2, c / 8}
		at := func(i uint8) float64 { return vals[int(i)%len(vals)] }
		runDim, dim := 1+int(dims%3), 1+int(dims/3%3)

		anchor := item.Item{ID: 1, Size: c / 4, Arrival: 0, Departure: 1}
		if runDim > 1 {
			anchor.Sizes = []float64{c / 4, c / 4, c / 4}[:runDim]
		}
		job := item.Item{ID: 2, Size: at(v0), Arrival: 0, Departure: 1}
		if dim > 1 {
			job.Sizes = []float64{at(v0), at(v1), at(v2)}[:dim]
			job.Size = at(sizeSel)
			if dominant {
				job.Size = job.Sizes[0]
				for _, s := range job.Sizes {
					if s > job.Size {
						job.Size = s
					}
				}
			}
		}

		fits := job.Size > 0 && job.Size <= c && dim == runDim
		largest := 0.0
		for _, s := range job.Sizes {
			fits = fits && s >= 0 && s <= c
			largest = math.Max(largest, s)
		}
		if fits && dim > 1 {
			fits = math.Abs(largest-job.Size) <= 1e-12
		}
		want := "demand"
		if fits {
			want = ""
		}

		l := item.List{anchor, job}
		for _, fe := range frontEnds {
			if fe.unitOnly && c != 1 || fe.name == "RunFleet" && runDim*dim != 1 {
				continue
			}
			if got := errClass(fe.run(l, c, runDim)); got != want {
				t.Errorf("%s at capacity %g, run dim %d: job %v sizes %v: got class %q, want %q",
					fe.name, c, runDim, job, job.Sizes, got, want)
			}
		}
	})
}
