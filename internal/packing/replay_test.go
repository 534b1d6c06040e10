package packing

import (
	"math/rand"
	"testing"

	"dbp/internal/item"
)

// Replaying a policy's own assignment must reproduce its result exactly.
func TestReplayRoundTripsPolicies(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 6; trial++ {
		l := randomInstance(rng, 100, 8)
		for name, algo := range Standard() {
			res := MustRun(algo, l, nil)
			rep, err := Replay(l, assignment(res))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if rep.TotalUsage != res.TotalUsage || rep.NumBins() != res.NumBins() ||
				rep.MaxConcurrentOpen != res.MaxConcurrentOpen {
				t.Fatalf("%s: replay %g/%d/%d != original %g/%d/%d", name,
					rep.TotalUsage, rep.NumBins(), rep.MaxConcurrentOpen,
					res.TotalUsage, res.NumBins(), res.MaxConcurrentOpen)
			}
			if err := rep.Verify(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

func TestReplayRejectsOverfullAssignment(t *testing.T) {
	l := item.List{
		mk(1, 0.7, 0, 2),
		mk(2, 0.7, 1, 3),
	}
	if _, err := Replay(l, map[item.ID]int{1: 0, 2: 0}); err == nil {
		t.Fatal("over-capacity assignment must be rejected")
	}
}

func TestReplayRejectsMissingAssignment(t *testing.T) {
	l := item.List{mk(1, 0.5, 0, 1)}
	if _, err := Replay(l, map[item.ID]int{}); err == nil {
		t.Fatal("missing assignment must be rejected")
	}
}

func TestReplayAcceptsArbitraryLabelsAndReuse(t *testing.T) {
	// Labels need not be contiguous, and a label may be reused after its
	// bin closes (a fresh server is opened).
	l := item.List{
		mk(1, 0.9, 0, 1),
		mk(2, 0.9, 5, 6),
	}
	rep, err := Replay(l, map[item.ID]int{1: 42, 2: 42})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NumBins() != 2 {
		t.Fatalf("bins = %d, want 2 (label reuse after close)", rep.NumBins())
	}
	if rep.TotalUsage != 2 {
		t.Fatalf("usage = %g", rep.TotalUsage)
	}
}

// An external "better" assignment is accepted and measured: pack two
// compatible items together even though Worst Fit would split them.
func TestReplayMeasuresExternalPacking(t *testing.T) {
	l := item.List{
		mk(1, 0.5, 0, 4),
		mk(2, 0.5, 0, 4),
		mk(3, 0.5, 0, 4),
		mk(4, 0.5, 0, 4),
	}
	rep, err := Replay(l, map[item.ID]int{1: 0, 2: 0, 3: 1, 4: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NumBins() != 2 || rep.TotalUsage != 8 {
		t.Fatalf("replay = %d bins, usage %g", rep.NumBins(), rep.TotalUsage)
	}
}
