//go:build race

package serve_test

// raceEnabled reports whether the race detector is on.
const raceEnabled = true
