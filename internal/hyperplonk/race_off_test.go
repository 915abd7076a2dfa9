//go:build !race

package hyperplonk_test

// raceEnabled reports whether the race detector instruments this build;
// allocation bounds are skipped under it (the instrumentation itself
// allocates).
const raceEnabled = false
