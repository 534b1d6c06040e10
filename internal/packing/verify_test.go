package packing

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"dbp/internal/bins"
	"dbp/internal/item"
)

// verifyInOrder is Verify as a loop over the servers in order, one item
// list gathered per server for its capacity sweep: the oracle of the
// parallel Verify's errors.
func verifyInOrder(r *Result) error {
	if len(r.Server) != len(r.Items) {
		return fmt.Errorf("%d server entries for %d items", len(r.Server), len(r.Items))
	}
	placed := make([]bool, len(r.Items))
	var usage float64
	for k := range r.Bins {
		b := &r.Bins[k]
		if b.Index != k {
			return fmt.Errorf("bin at position %d has index %d", k, b.Index)
		}
		if len(b.Pos) == 0 {
			return fmt.Errorf("bin %d served no items", b.Index)
		}
		var lo, hi = math.Inf(1), math.Inf(-1)
		dim := 1
		var items item.List
		for _, p := range b.Pos {
			if p < 0 || int(p) >= len(r.Items) {
				return fmt.Errorf("bin %d holds position %d, outside the %d items", b.Index, p, len(r.Items))
			}
			it := r.Items[p]
			if placed[p] {
				return fmt.Errorf("item %d placed in bins %d and %d", it.ID, r.Server[p], b.Index)
			}
			placed[p] = true
			if r.Server[p] != b.Index {
				return fmt.Errorf("item %d has server %d, but bin %d holds it", it.ID, r.Server[p], b.Index)
			}
			items = append(items, it)
			lo = math.Min(lo, it.Arrival)
			hi = math.Max(hi, it.Departure)
			dim = max(dim, it.Dim())
		}
		wantHi := hi + r.KeepAlive
		if math.Abs(b.UsagePeriod().Lo-lo) > 1e-9 || math.Abs(b.UsagePeriod().Hi-wantHi) > 1e-9 {
			return fmt.Errorf("bin %d usage period %v does not match items' hull [%g, %g)", b.Index, b.UsagePeriod(), lo, wantHi)
		}
		var err error
		items.Segments(func(t, _ float64, active []int) {
			lv := make([]float64, dim)
			for _, i := range active {
				for d, s := range items[i].SizeVec() {
					lv[d] += s
				}
			}
			for d := range lv {
				if err == nil && lv[d] > b.Capacity+bins.Eps {
					err = fmt.Errorf("bin %d over capacity in dim %d at t=%g: level %g", b.Index, d, t, lv[d])
				}
			}
		})
		if err != nil {
			return err
		}
		usage += b.Usage()
	}
	for i, it := range r.Items {
		if !placed[i] {
			return fmt.Errorf("item %d never placed", it.ID)
		}
	}
	if math.Abs(usage-r.TotalUsage) > 1e-6*(1+math.Abs(usage)) {
		return fmt.Errorf("recomputed usage %g != reported %g", usage, r.TotalUsage)
	}
	return nil
}

// TestVerifyInParallel applies TestVerifyRejectsCorruptResults'
// corruptions to servers in the middle of First Fit Results of four
// chunks, scalar and d=2, and two corruptions at once to servers of
// different chunks: at GOMAXPROCS 1, 2 and 4, Verify must accept the
// uncorrupted Results and report exactly the error verifyInOrder
// reports, that of the lowest-indexed failing server. Not skipped under
// -short, so the race detector sees the fan-out.
func TestVerifyInParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 4 * verifyChunk
	scalar, vector := make(item.List, n), make(item.List, n)
	for i := range n {
		arr := 0.01 * float64(i)
		dep := arr + 0.1 + rng.Float64()
		a, b := 0.05+0.45*rng.Float64(), 0.05+0.45*rng.Float64()
		scalar[i] = mk(item.ID(i+1), a, arr, dep)
		vector[i] = item.Item{ID: item.ID(i + 1), Size: math.Max(a, b), Sizes: []float64{a, b}, Arrival: arr, Departure: dep}
	}
	// mid(c) is chunk c's middle server; overfill puts an item of it over
	// the capacity in its last dimension.
	var bounds []int
	mid := func(c int) int { return (bounds[c] + bounds[c+1]) / 2 }
	overfill := func(r *Result, k int) {
		it := &r.Items[r.Bins[k].Pos[0]]
		it.Size = 1.5
		if it.Sizes != nil {
			it.Sizes = []float64{it.Sizes[0], 1.5}
		}
	}
	type corruption struct {
		name    string
		corrupt func(r *Result)
	}
	cases := []corruption{
		{"position in two servers", func(r *Result) {
			r.Bins[mid(1)+1].Pos = append(r.Bins[mid(1)+1].Pos, r.Bins[mid(1)].Pos[0])
		}},
		{"position in two servers of different chunks", func(r *Result) {
			r.Bins[mid(2)].Pos = append(r.Bins[mid(2)].Pos, r.Bins[mid(0)].Pos[0])
		}},
		{"position in two servers of different chunks, the later one first", func(r *Result) {
			r.Bins[mid(0)].Pos = append(r.Bins[mid(0)].Pos, r.Bins[mid(2)].Pos[0])
		}},
		{"position twice in one server", func(r *Result) {
			r.Bins[mid(1)].Pos = append(r.Bins[mid(1)].Pos, r.Bins[mid(1)].Pos[0])
		}},
		{"item never placed", func(r *Result) {
			r.Items = append(r.Items, mk(item.ID(n+1), 0.1, 0, 1))
			r.Server = append(r.Server, mid(1))
		}},
		{"job in no server", func(r *Result) {
			b := &r.Bins[mid(1)]
			b.Pos = slices.Delete(b.Pos, len(b.Pos)/2, len(b.Pos)/2+1)
		}},
		{"position past the list", func(r *Result) { r.Bins[mid(1)].Pos[0] = int32(len(r.Items)) }},
		{"negative position", func(r *Result) { r.Bins[mid(1)].Pos[0] = -1 }},
		{"position disagrees with Server", func(r *Result) {
			a, b := &r.Bins[mid(1)], &r.Bins[mid(1)+1]
			a.Pos[0], b.Pos[0] = b.Pos[0], a.Pos[0]
		}},
		{"over capacity", func(r *Result) { overfill(r, mid(1)) }},
		{"usage period off the hull", func(r *Result) { r.Bins[mid(1)].ClosedAt += 0.5 }},
		{"Server disagrees with the records", func(r *Result) { r.Server[r.Bins[mid(1)].Pos[0]] = mid(1) + 1 }},
		{"server slice short", func(r *Result) { r.Server = r.Server[:len(r.Server)-1] }},
		{"wrong total usage", func(r *Result) { r.TotalUsage += 1 }},
		{"index off its position", func(r *Result) { r.Bins[mid(1)], r.Bins[mid(1)+1] = r.Bins[mid(1)+1], r.Bins[mid(1)] }},
		{"two chunks fail, the lower in chunk 1", func(r *Result) {
			r.Bins[mid(2)].ClosedAt += 0.5
			r.Bins[mid(1)].Pos[0] = -1
		}},
		{"two chunks fail, the lower in chunk 0", func(r *Result) {
			r.Bins[mid(3)].Pos[0] = -1
			overfill(r, mid(0))
		}},
	}
	check := func(name string, r *Result, want error) {
		t.Helper()
		for _, procs := range []int{1, 2, 4} {
			prev := runtime.GOMAXPROCS(procs)
			got := r.Verify()
			runtime.GOMAXPROCS(prev)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s, GOMAXPROCS %d: Verify said %v, want %v", name, procs, got, want)
			}
		}
	}
	for _, l := range []item.List{scalar, vector} {
		for _, keepAlive := range []float64{0, 1} {
			good := MustRun(NewFirstFit(), slices.Clone(l), &Options{KeepAlive: keepAlive})
			// run copies good deep enough for any case to corrupt.
			run := func() *Result {
				r := *good
				r.Items, r.Server, r.Bins = slices.Clone(good.Items), slices.Clone(good.Server), slices.Clone(good.Bins)
				for k := range r.Bins {
					r.Bins[k].Pos = slices.Clone(r.Bins[k].Pos)
					r.Bins[k].list = &r.Items
				}
				return &r
			}
			r := run()
			bounds = chunkBounds(r.Bins)
			if len(bounds) < 5 {
				t.Fatalf("%d servers in %d chunks, want 4", len(r.Bins), len(bounds)-1)
			}
			dim := l[0].Dim()
			check(fmt.Sprintf("d=%d keep-alive %g, uncorrupted", dim, keepAlive), r, nil)
			for _, c := range cases {
				r := run()
				c.corrupt(r)
				want := verifyInOrder(r)
				if want == nil {
					t.Fatalf("d=%d keep-alive %g, %s: the oracle accepted the corrupt result", dim, keepAlive, c.name)
				}
				check(fmt.Sprintf("d=%d keep-alive %g, %s", dim, keepAlive, c.name), r, want)
			}
		}
	}
}
