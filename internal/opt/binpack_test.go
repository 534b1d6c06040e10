package opt

import (
	"math/rand"
	"testing"
)

func TestFirstFitKnown(t *testing.T) {
	cases := []struct {
		sizes []float64
		want  int
	}{
		{nil, 0},
		{[]float64{1}, 1},
		{[]float64{0.5, 0.5}, 1},
		{[]float64{0.6, 0.5, 0.4}, 2}, // FF: {0.6,0.4}? 0.6; 0.5 fits (1.1 no) -> new; 0.4 joins 0.6
		{[]float64{0.5, 0.5, 0.5}, 2},
		{[]float64{0.9, 0.9, 0.9}, 3},
	}
	for _, c := range cases {
		if got := firstFit(c.sizes, 1); got != c.want {
			t.Errorf("FirstFit(%v) = %d, want %d", c.sizes, got, c.want)
		}
	}
}

func TestFFDBeatsFFOnClassicInstance(t *testing.T) {
	// FF in this order wastes bins; FFD fixes it.
	sizes := []float64{0.4, 0.4, 0.4, 0.6, 0.6, 0.6}
	ff := firstFit(sizes, 1)
	ffd := firstFitDecreasing(sizes, 1)
	if ffd != 3 {
		t.Errorf("FFD = %d, want 3", ffd)
	}
	if ff < ffd {
		t.Errorf("FF (%d) beat FFD (%d)?", ff, ffd)
	}
}

func TestExactKnownInstances(t *testing.T) {
	cases := []struct {
		sizes []float64
		want  int
	}{
		{nil, 0},
		{[]float64{0.5}, 1},
		{[]float64{0.5, 0.5, 0.5, 0.5}, 2},
		{[]float64{0.6, 0.6, 0.4, 0.4}, 2},      // pairs 0.6+0.4
		{[]float64{0.7, 0.7, 0.3, 0.3, 0.3}, 3}, // 0.7+0.3, 0.7+0.3, 0.3
		{[]float64{0.51, 0.51, 0.51}, 3},        // all conflict
		{[]float64{0.25, 0.25, 0.25, 0.25}, 1},  // quarters
		{[]float64{1, 1, 1}, 3},                 // full items
		{[]float64{0.35, 0.35, 0.35, 0.95}, 3},  // FFD would do 0.95 | 0.35+0.35 | 0.35? FFD=3 too; exact: 0.35*3=1.05 > 1 so 3
	}
	for _, c := range cases {
		if got := exactBins(c.sizes, 1); got != c.want {
			t.Errorf("Exact(%v) = %d, want %d", c.sizes, got, c.want)
		}
	}
}

func TestExactBeatsFFDWhenPossible(t *testing.T) {
	// Classic FFD-suboptimal instance: FFD gives 3 bins, optimum is 2? Use
	// sizes where FFD is provably suboptimal: {0.45,0.45,0.35,0.35,0.2,0.2}
	// FFD: 0.45+0.45 (0.9) +0.2? no (1.1): bins {0.45,0.45},{0.35,0.35,0.2},{0.2}
	// Wait 0.45+0.45=0.9, then 0.35 -> new? 0.9+0.35>1 so bin2: 0.35+0.35=0.7,
	// +0.2=0.9, second 0.2 -> bin1? 0.9+0.2 > 1, bin2 0.9+0.2 > 1 -> bin3. FFD=3.
	// Optimal: {0.45,0.35,0.2} twice = 2.
	sizes := []float64{0.45, 0.45, 0.35, 0.35, 0.2, 0.2}
	if ffd := firstFitDecreasing(sizes, 1); ffd != 3 {
		t.Fatalf("FFD = %d, want 3 (test construction broken)", ffd)
	}
	if got := exactBins(sizes, 1); got != 2 {
		t.Errorf("Exact = %d, want 2", exactBins(sizes, 1))
	}
}

func TestL1L2(t *testing.T) {
	if lowerL1(nil, 1) != 0 || lowerL2(nil, 1) != 0 {
		t.Error("empty bounds must be 0")
	}
	sizes := []float64{0.6, 0.6, 0.6}
	if got := lowerL1(sizes, 1); got != 2 {
		t.Errorf("L1 = %d, want 2", got)
	}
	if got := lowerL2(sizes, 1); got != 3 {
		t.Errorf("L2 = %d, want 3 (each >1/2 item needs its own bin)", got)
	}
	// L2 with mid-range mass: two 0.7s leave 0.6 slack; 0.9 of mid mass
	// needs an extra bin.
	sizes = []float64{0.7, 0.7, 0.3, 0.3, 0.3}
	if got := lowerL2(sizes, 1); got != 3 {
		t.Errorf("L2 = %d, want 3", got)
	}
}

func TestExactWithLimitReportsIncompleteness(t *testing.T) {
	// An instance where the L2 lower bound (2) is strictly below the FFD
	// incumbent (3), so branch and bound must actually search; with one
	// node it cannot finish.
	sizes := []float64{0.45, 0.45, 0.35, 0.35, 0.2, 0.2}
	if _, ok := exactBinsLimit(sizes, 1, 1); ok {
		t.Error("node limit 1 cannot complete a search with lb < ub")
	}
	n, ok := exactBinsLimit([]float64{0.5, 0.5}, 1, nodeLimit)
	if !ok || n != 1 {
		t.Errorf("trivial instance: (%d, %v)", n, ok)
	}
}

// brute solves bin packing by trying all assignments (exponential; tiny n
// only) as an independent oracle.
func brute(sizes []float64, capacity float64) int {
	n := len(sizes)
	if n == 0 {
		return 0
	}
	best := n
	assign := make([]int, n)
	var rec func(i, used int)
	rec = func(i, used int) {
		if used >= best {
			return
		}
		if i == n {
			best = used
			return
		}
		levels := make([]float64, used+1)
		for j := 0; j < i; j++ {
			levels[assign[j]] += sizes[j]
		}
		for b := 0; b <= used && b < n; b++ {
			nu := used
			if b == used {
				nu = used + 1
			}
			lv := 0.0
			if b < used {
				lv = levels[b]
			}
			if lv+sizes[i] <= capacity+eps {
				assign[i] = b
				rec(i+1, nu)
			}
		}
	}
	rec(0, 0)
	return best
}

func TestExactAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 150; trial++ {
		n := 1 + rng.Intn(9)
		sizes := make([]float64, n)
		for i := range sizes {
			sizes[i] = float64(1+rng.Intn(20)) / 20
		}
		want := brute(sizes, 1)
		if got := exactBins(sizes, 1); got != want {
			t.Fatalf("Exact(%v) = %d, brute = %d", sizes, got, want)
		}
	}
}

func TestBoundSandwich(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(25)
		sizes := make([]float64, n)
		for i := range sizes {
			sizes[i] = 0.01 + rng.Float64()*0.99
		}
		l1, l2 := lowerL1(sizes, 1), lowerL2(sizes, 1)
		ex := exactBins(sizes, 1)
		ffd := firstFitDecreasing(sizes, 1)
		bfd := bestFitDecreasing(sizes, 1)
		ff := firstFit(sizes, 1)
		if !(l1 <= l2 && l2 <= ex && ex <= ffd && ex <= bfd && ex <= ff) {
			t.Fatalf("bound sandwich violated: L1=%d L2=%d OPT=%d FFD=%d BFD=%d FF=%d (sizes %v)",
				l1, l2, ex, ffd, bfd, ff, sizes)
		}
	}
}

func TestPerfectPacking(t *testing.T) {
	// 3 bins of {0.5, 0.3, 0.2}: exact must find the perfect packing.
	var sizes []float64
	for i := 0; i < 3; i++ {
		sizes = append(sizes, 0.5, 0.3, 0.2)
	}
	if got := exactBins(sizes, 1); got != 3 {
		t.Errorf("Exact = %d, want 3", got)
	}
}

func TestExactCustomCapacity(t *testing.T) {
	sizes := []float64{1.5, 1.5, 1.0}
	if got := exactBins(sizes, 2); got != 3 {
		// 1.5+1.0 > 2? 2.5 > 2 yes. 1.5 alone each; 1.0 shares? 1.5+1.0 no.
		// So 1.5|1.5|1.0 -> can 1.0 join? no. 3 bins? Wait capacity 2:
		// 1.5 and 1.0 -> 2.5 > 2. So 3 bins... but two 1.5s can't pair
		// either. Exactly 3? Actually {1.5},{1.5},{1.0}: yes 3.
		t.Errorf("Exact = %d, want 3", got)
	}
	if got := exactBins([]float64{1.5, 0.5, 2.0}, 2); got != 2 {
		t.Errorf("Exact = %d, want 2", got)
	}
}

func TestVectorHelpers(t *testing.T) {
	sizes := [][]float64{{0.8, 0.1}, {0.1, 0.8}, {0.8, 0.8}}
	if got := firstFitVec(sizes, 1); got != 2 {
		t.Errorf("FirstFitVec = %d, want 2", got)
	}
	if got := lowerL1Vec(sizes, 1); got != 2 {
		t.Errorf("L1Vec = %d, want 2 (1.7 load per dim)", got)
	}
	if lowerL1Vec(nil, 1) != 0 {
		t.Error("empty L1Vec must be 0")
	}
}

// Falkenauer-style triplets: items grouped in threes summing exactly to
// 1 admit a perfect packing of n/3 bins — a classic stressor for
// branch-and-bound completeness.
func TestExactOnTriplets(t *testing.T) {
	rng := rand.New(rand.NewSource(2001))
	for trial := 0; trial < 20; trial++ {
		groups := 3 + rng.Intn(4)
		var sizes []float64
		for g := 0; g < groups; g++ {
			a := 0.25 + rng.Float64()*0.25 // [0.25, 0.5)
			b := 0.2 + rng.Float64()*(0.5-a)
			c := 1 - a - b
			sizes = append(sizes, a, b, c)
		}
		got, ok := exactBinsLimit(sizes, 1, nodeLimit)
		if !ok {
			t.Fatalf("trial %d: node budget hit on %d items", trial, len(sizes))
		}
		if got != groups {
			t.Fatalf("trial %d: Exact = %d, want %d (perfect triplets)", trial, got, groups)
		}
	}
}
