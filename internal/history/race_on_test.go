//go:build race

package history

// raceEnabled reports whether the race detector instruments this build;
// allocation-count tests skip themselves under it (instrumentation
// changes allocation behaviour).
const raceEnabled = true
