package packing

import (
	"fmt"

	"dbp/internal/bins"
)

// RandomFit places each item into a uniformly random fitting open bin. It
// is an Any Fit algorithm (it opens a new bin only when nothing fits) and
// serves as a randomized baseline in the comparison experiments. Runs are
// reproducible: the policy is seeded and Reset rewinds it to the seed.
// It reads Open() only, on both engines.
//
// The random stream is counter-based (splitmix64 of seed + draw number),
// not math/rand: draw n is a pure function of (seed, n), so the policy's
// entire state is the seed and a draw counter — serializable for durable
// snapshots (SaveState), where math/rand's hidden generator state is not.
type RandomFit struct {
	seed  int64
	draws uint64
}

// NewRandomFit returns a Random Fit policy with the given seed.
func NewRandomFit(seed int64) *RandomFit {
	return &RandomFit{seed: seed}
}

// Name implements Algorithm.
func (rf *RandomFit) Name() string { return fmt.Sprintf("RandomFit(seed=%d)", rf.seed) }

// next consumes one draw: splitmix64's output function over the counter
// sequence seeded at seed (Steele, Lea, Flood: "Fast Splittable
// Pseudorandom Number Generators", OOPSLA'14).
func (rf *RandomFit) next() uint64 {
	rf.draws++
	x := uint64(rf.seed) + rf.draws*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Place returns a uniformly random fitting bin, or nil if none fits: it
// counts the fitting bins, draws once, and returns the k-th in opening
// order. (Modulo bias over 64-bit draws is immeasurably small for any
// feasible fleet size.)
func (rf *RandomFit) Place(a Arrival, f Fleet) *bins.Bin {
	open := f.Open()
	n := 0
	for _, b := range open {
		if b.FitsDemand(a.Sizes) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	k := rf.next() % uint64(n)
	for _, b := range open {
		if b.FitsDemand(a.Sizes) {
			if k == 0 {
				return b
			}
			k--
		}
	}
	panic("packing: RandomFit lost a fitting bin between its two scans")
}

// BinOpened implements Algorithm; Random Fit tracks no bin state.
func (*RandomFit) BinOpened(*bins.Bin) {}

// Reset rewinds the random stream to the seed, making runs reproducible.
func (rf *RandomFit) Reset() { rf.draws = 0 }

// SaveState implements StatefulAlgorithm: the draw counter (the seed is
// construction configuration, carried by the policy name).
func (rf *RandomFit) SaveState() PolicyState { return PolicyState{Draws: rf.draws} }

// RestoreState implements StatefulAlgorithm.
func (rf *RandomFit) RestoreState(st PolicyState, _ func(int) *bins.Bin) error {
	rf.draws = st.Draws
	return nil
}
