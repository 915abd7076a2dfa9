package main

import (
	"testing"

	"zkspeed"
)

// TestCheckMuRange: -mu accepts the supported range and rejects one past
// either end.
func TestCheckMuRange(t *testing.T) {
	for _, mu := range []int{2, zkspeed.MaxMu} {
		if err := checkMu(mu); err != nil {
			t.Errorf("mu=%d rejected: %v", mu, err)
		}
	}
	for _, mu := range []int{1, zkspeed.MaxMu + 1} {
		if checkMu(mu) == nil {
			t.Errorf("mu=%d accepted", mu)
		}
	}
}
