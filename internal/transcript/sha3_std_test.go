//go:build go1.24

package transcript

import (
	"crypto/sha3"
	"math/rand"
	"testing"
)

// TestSHA3MatchesStdlib is a differential test of the sponge against the
// standard library's SHA3-256 (crypto/sha3, Go 1.24+): every length up to
// four blocks, the 135/136/137-byte rate edges and their multiples, and
// random lengths and contents, each hashed one-shot and in two random
// writes.
func TestSHA3MatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	var lengths []int
	for n := 0; n <= 4*sha3Rate; n++ {
		lengths = append(lengths, n)
	}
	for k := 1; k <= 8; k++ {
		lengths = append(lengths, k*sha3Rate-1, k*sha3Rate, k*sha3Rate+1)
	}
	for i := 0; i < 200; i++ {
		lengths = append(lengths, rng.Intn(1<<14))
	}
	for _, n := range lengths {
		msg := make([]byte, n)
		rng.Read(msg)
		want := sha3.Sum256(msg)
		if got := Sum256(msg); got != want {
			t.Fatalf("Sum256 of %d bytes = %x, crypto/sha3 says %x", n, got, want)
		}
		cut := rng.Intn(n + 1)
		var s sha3State
		s.Write(msg[:cut])
		s.Write(msg[cut:])
		if got := s.Sum256(); got != want {
			t.Fatalf("%d bytes written as %d+%d = %x, crypto/sha3 says %x", n, cut, n-cut, got, want)
		}
	}
}
