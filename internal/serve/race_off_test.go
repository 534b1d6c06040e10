//go:build !race

package serve_test

// raceEnabled reports whether the race detector is on; the allocation
// pin is skipped under -race, which makes sync.Pool drop items at random.
const raceEnabled = false
