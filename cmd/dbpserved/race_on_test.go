//go:build race

package main

// raceEnabled reports whether the race detector is on; the crash suite
// then builds the daemon it kills with -race too.
const raceEnabled = true
