//go:build race

package hyperplonk_test

const raceEnabled = true
