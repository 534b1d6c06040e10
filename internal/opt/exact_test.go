package opt

import (
	"math/rand"
	"sort"
	"testing"
)

// refExact is the solver as it stood before its search stopped
// allocating: a map of tried level keys per node, no stop at the lower
// bound. It is the oracle TestExactMatchesReference holds the search to.
func refExact(sizes []float64, capacity float64, maxNodes int) (int, bool) {
	if len(sizes) == 0 {
		return 0, true
	}
	s := append([]float64(nil), sizes...)
	sort.Sort(sort.Reverse(sort.Float64Slice(s)))
	lb := lowerL2(s, capacity)
	ub := firstFitDecreasing(s, capacity)
	if bfd := bestFitDecreasing(s, capacity); bfd < ub {
		ub = bfd
	}
	if lb >= ub {
		return ub, true
	}
	r := &refBnb{sizes: s, capacity: capacity, best: ub, nodeCap: maxNodes}
	r.levels = make([]float64, 0, ub)
	r.suffix = make([]float64, len(s)+1)
	for i := len(s) - 1; i >= 0; i-- {
		r.suffix[i] = r.suffix[i+1] + s[i]
	}
	r.search(0)
	return r.best, r.nodes < r.nodeCap
}

type refBnb struct {
	sizes    []float64
	capacity float64
	levels   []float64
	best     int
	nodes    int
	nodeCap  int
	suffix   []float64
}

func (b *refBnb) search(i int) {
	if b.nodes >= b.nodeCap {
		return
	}
	b.nodes++
	if i == len(b.sizes) {
		if len(b.levels) < b.best {
			b.best = len(b.levels)
		}
		return
	}
	free := 0.0
	for _, lv := range b.levels {
		free += b.capacity - lv
	}
	need := b.suffix[i] - free
	extra := 0
	if need > eps {
		extra = int((need-eps)/b.capacity) + 1
	}
	if len(b.levels)+extra >= b.best {
		return
	}
	s := b.sizes[i]
	tried := make(map[int64]bool, len(b.levels))
	for k := range b.levels {
		if b.levels[k]+s > b.capacity+eps {
			continue
		}
		key := int64(b.levels[k] * 1e12)
		if tried[key] {
			continue
		}
		tried[key] = true
		b.levels[k] += s
		b.search(i + 1)
		b.levels[k] -= s
		if b.nodes >= b.nodeCap {
			return
		}
		if b.levels[k]+s >= b.capacity-eps {
			return
		}
	}
	if len(b.levels)+1 < b.best {
		b.levels = append(b.levels, s)
		b.search(i + 1)
		b.levels = b.levels[:len(b.levels)-1]
	}
}

// oracleSegment draws one of three segment families: continuous sizes;
// sizes on a 1/20 grid, whose many equal bin levels exercise the dedupe;
// and sizes on a 1/10 grid shifted by eps/2 plus a few 1e-13, so that
// two bins can share a level key while only one of them fits the next
// item, which exercises the dedupe's fit check.
func oracleSegment(rng *rand.Rand) []float64 {
	sizes := make([]float64, 1+rng.Intn(30))
	family := rng.Intn(3)
	for i := range sizes {
		switch family {
		case 0:
			sizes[i] = 0.2 + 0.3*rng.Float64()
		case 1:
			sizes[i] = float64(3+rng.Intn(8)) / 20
		default:
			sizes[i] = float64(2+rng.Intn(6))/10 + eps/2 + float64(rng.Intn(3)-1)*5e-13 + float64(rng.Intn(3)-1)*3e-13
		}
	}
	return sizes
}

// TestExactMatchesReference holds ExactWithLimit to refExact on 10⁴
// seeded segments of up to 30 items under a reduced node budget:
// wherever the reference completes, the search must complete with the
// same count. It may complete where the reference does not (it stops at
// the lower bound), and then its count must not exceed the reference's
// incumbent.
func TestExactMatchesReference(t *testing.T) {
	const budget = 10_000
	rng := rand.New(rand.NewSource(12))
	searched := 0
	for trial := 0; trial < 10_000; trial++ {
		sizes := oracleSegment(rng)
		want, refOK := refExact(sizes, 1, budget)
		got, ok := exactBinsLimit(sizes, 1, budget)
		if refOK && (!ok || got != want) {
			t.Fatalf("trial %d: ExactWithLimit = (%d, %v), reference = (%d, true) on %v", trial, got, ok, want, sizes)
		}
		if !refOK && got > want {
			t.Fatalf("trial %d: cut-off incumbent %d worse than the reference's %d on %v", trial, got, want, sizes)
		}
		if lowerL2(sizes, 1) < firstFitDecreasing(sizes, 1) {
			searched++
		}
	}
	if searched < 1000 {
		t.Fatalf("only %d of 10000 segments needed a search; the families are too easy", searched)
	}
}

// hardSegment is a seeded 32-item segment on which the search exhausts
// DefaultNodeLimit: it improves FFD's 14 bins to 13 but cannot close the
// gap to L2's 12.
func hardSegment() []float64 {
	rng := rand.New(rand.NewSource(5))
	sizes := make([]float64, 32)
	for i := range sizes {
		sizes[i] = 0.2 + 0.3*rng.Float64()
	}
	return sizes
}

// TestExactSearchAllocsBounded pins the search's allocations: a call that
// spends the whole node budget allocates only its setup (the sorted copy,
// the bounds' scratch and the level array), none per node. refExact's
// map of tried keys makes about 6,000,000 on this segment, three per
// node. (Go keeps a non-escaping map of at most eight entries on the
// stack, so the segment needs more bins than that open to show it.)
func TestExactSearchAllocsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("spends two million search nodes per call")
	}
	sizes := hardSegment()
	if _, ok := exactBinsLimit(sizes, 1, nodeLimit); ok {
		t.Fatal("segment completes within DefaultNodeLimit; the pin needs one that exhausts it")
	}
	allocs := testing.AllocsPerRun(1, func() { exactBinsLimit(sizes, 1, nodeLimit) })
	if allocs > 32 {
		t.Fatalf("ExactWithLimit made %.0f allocations on a budget-exhausting segment, want <= 32", allocs)
	}
}

// BenchmarkBinpackExact24 solves one seeded 24-item segment, sizes in
// [0.2, 0.5), on which FFD and BFD use 10 bins against an L2 bound of 9:
// the branch and bound visits 36,111 nodes before it finds a 9-bin
// packing and stops at the bound.
func BenchmarkBinpackExact24(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	sizes := make([]float64, 24)
	for i := range sizes {
		sizes[i] = 0.2 + 0.3*rng.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := exactBinsLimit(sizes, 1, nodeLimit); !ok {
			b.Fatal("exact solve cut off")
		}
	}
	b.ReportMetric(float64(len(sizes)), "items")
}
