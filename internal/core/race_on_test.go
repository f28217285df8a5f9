//go:build race

package core

// raceEnabled reports whether the race detector is active; allocation
// tests skip under it (instrumentation skews the counters).
const raceEnabled = true
