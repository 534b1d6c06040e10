package packing_test

import (
	"errors"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"dbp/internal/item"
	"dbp/internal/packing"
)

// scaleOp is one step of a scripted stream: an arrival with a demand on
// the 1/8 grid, or the departure of a resident job.
type scaleOp struct {
	depart bool
	id     item.ID
	sizes  []float64 // one component per dimension, unit-capacity fractions
	at     float64
}

// scaleScript is a deterministic arrive/depart sequence in d dimensions.
// Every size and time is a multiple of 1/8, so scaling by a power of two
// is exact and no admission comparison lands near its tolerance.
func scaleScript(d, n int) []scaleOp {
	rng := rand.New(rand.NewSource(int64(d)))
	var ops []scaleOp
	var resident []item.ID
	at := 0.0
	for i := 1; len(ops) < n; i++ {
		at += float64(rng.Intn(3)) / 8
		if len(resident) > 0 && rng.Intn(3) == 0 {
			k := rng.Intn(len(resident))
			ops = append(ops, scaleOp{depart: true, id: resident[k], at: at})
			resident = append(resident[:k], resident[k+1:]...)
			continue
		}
		sizes := make([]float64, d)
		for j := range sizes {
			sizes[j] = float64(1+rng.Intn(8)) / 8
		}
		ops = append(ops, scaleOp{id: item.ID(i), sizes: sizes, at: at})
		resident = append(resident, item.ID(i))
	}
	return ops
}

// play feeds the script to s, every demand scaled by scale (a
// one-component demand as a scalar job), and returns the server of each op.
func play(t *testing.T, s *packing.Stream, ops []scaleOp, scale float64) []int {
	t.Helper()
	servers := make([]int, len(ops))
	var err error
	for i, op := range ops {
		if op.depart {
			servers[i], _, err = s.Depart(op.id, op.at)
		} else {
			sizes := make([]float64, len(op.sizes))
			for j, c := range op.sizes {
				sizes[j] = c * scale
			}
			size := slices.Max(sizes)
			if len(sizes) == 1 {
				sizes = nil
			}
			servers[i], _, err = s.Arrive(op.id, size, sizes, op.at)
		}
		if err != nil {
			t.Fatalf("%s: op %d: %v", s.Policy(), i, err)
		}
	}
	return servers
}

// playScaled feeds the script to a fresh keep-alive stream of the given
// capacity, every demand scaled by it.
func playScaled(t *testing.T, name string, d int, capacity float64, ops []scaleOp) []int {
	t.Helper()
	algo, err := packing.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return play(t, packing.NewStreamKeepAlive(algo, capacity, d, 0.5), ops, capacity)
}

// TestPlacementScaleInvariant holds every registered policy to the
// paper's normalization: sizes are fractions of a server, so a fleet of
// capacity c fed the unit instance scaled by c must assign every job to
// the same server. The size-classifying hybrids once compared the
// absolute size with 1/2, putting every job above half a unit in their
// large class at any capacity.
func TestPlacementScaleInvariant(t *testing.T) {
	for _, name := range packing.Names() {
		for _, d := range []int{1, 2} {
			ops := scaleScript(d, 400)
			want := playScaled(t, name, d, 1, ops)
			for _, capacity := range []float64{0.5, 2} {
				if got := playScaled(t, name, d, capacity, ops); !slices.Equal(got, want) {
					i := 0
					for got[i] == want[i] {
						i++
					}
					t.Errorf("%s d=%d: at capacity %g op %d goes to server %d, at capacity 1 to %d",
						name, d, capacity, i, got[i], want[i])
				}
			}
		}
	}
}

// scaleList is a batch instance of n jobs in d dimensions on the grid
// scaleScript uses, every demand scaled by scale: sizes are multiples of
// scale/8, arrival times and durations multiples of 1/8.
func scaleList(d, n int, scale float64) item.List {
	rng := rand.New(rand.NewSource(int64(d)))
	l := make(item.List, n)
	at := 0.0
	for i := range l {
		at += float64(rng.Intn(3)) / 8
		sizes := make([]float64, d)
		for j := range sizes {
			sizes[j] = float64(1+rng.Intn(8)) / 8 * scale
		}
		l[i] = item.Item{ID: item.ID(i + 1), Size: slices.Max(sizes), Arrival: at, Departure: at + float64(1+rng.Intn(24))/8}
		if d > 1 {
			l[i].Sizes = sizes
		}
	}
	return l
}

// TestRunScaleInvariant is TestPlacementScaleInvariant for the batch
// path: Run at capacity c on the unit instance scaled by c assigns every
// job to the same server as Run at capacity 1. Run once refused every
// size above 1, whatever its capacity.
func TestRunScaleInvariant(t *testing.T) {
	for _, name := range packing.Names() {
		for _, d := range []int{1, 2} {
			run := func(capacity float64) *packing.Result {
				algo, err := packing.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				res, err := packing.Run(algo, scaleList(d, 400, capacity), &packing.Options{Capacity: capacity, KeepAlive: 0.5})
				if err != nil {
					t.Fatalf("%s d=%d capacity %g: %v", name, d, capacity, err)
				}
				return res
			}
			want := run(1)
			for _, capacity := range []float64{0.5, 2} {
				got := run(capacity)
				if !maps.Equal(got.Assignment, want.Assignment) || got.TotalUsage != want.TotalUsage {
					t.Errorf("%s d=%d: at capacity %g the run uses %d servers for %g, at capacity 1 %d for %g",
						name, d, capacity, got.NumBins(), got.TotalUsage, want.NumBins(), want.TotalUsage)
				}
			}
		}
	}
}

// TestStreamRefusesNonDominantSize: a vector demand's Size must be its
// largest component, the rule item.Validate applies to a batch run. A
// stream used to place such a demand that Run refuses.
func TestStreamRefusesNonDominantSize(t *testing.T) {
	s := packing.NewStream(packing.NewFirstFit(), 1, 2)
	srv, _, err := s.Arrive(1, 0.1, []float64{0.9, 0.9}, 0)
	if !errors.Is(err, packing.ErrBadDemand) || srv != packing.ErrServer {
		t.Fatalf("Size 0.1 with Sizes {0.9, 0.9}: server %d, err %v; want ErrBadDemand", srv, err)
	}
	if s.OpenServers() != 0 {
		t.Fatalf("a refused demand opened %d servers", s.OpenServers())
	}
	l := item.List{{ID: 1, Size: 0.1, Sizes: []float64{0.9, 0.9}, Arrival: 0, Departure: 1}}
	if _, err := packing.Run(packing.NewFirstFit(), l, nil); err == nil {
		t.Fatal("Run accepted the demand the stream refused")
	}
	// Within item.Validate's 1e-12 tolerance the demand is admitted.
	if _, _, err := s.Arrive(2, 0.9+1e-13, []float64{0.9, 0.5}, 0); err != nil {
		t.Fatalf("Size within 1e-12 of max(Sizes): %v", err)
	}
}
