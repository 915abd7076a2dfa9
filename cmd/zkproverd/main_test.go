package main

import (
	"fmt"
	"testing"

	"zkspeed"
)

// TestParseMusRange: -preload-mu accepts the supported range and rejects
// one past either end.
func TestParseMusRange(t *testing.T) {
	list := fmt.Sprintf("2,%d", zkspeed.MaxMu)
	if mus, err := parseMus(list); err != nil || len(mus) != 2 {
		t.Errorf("%q parsed as %v, %v", list, mus, err)
	}
	for _, mu := range []int{1, zkspeed.MaxMu + 1} {
		if _, err := parseMus(fmt.Sprint(mu)); err == nil {
			t.Errorf("-preload-mu %d accepted", mu)
		}
	}
}
