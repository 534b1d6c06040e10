//go:build !race

package main

// raceEnabled reports whether the race detector is on.
const raceEnabled = false
