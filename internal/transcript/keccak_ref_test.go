package transcript

import (
	"encoding/binary"
	"encoding/hex"
	"testing"

	"zkspeed/internal/ff"
)

// The pre-unrolling Keccak-f[1600], retained verbatim as the differential
// oracle for keccakF1600: 5×5 lane state indexed [x][y], %5 index
// arithmetic, table-driven ρ offsets.

var keccakRhoRef = [5][5]uint{
	{0, 36, 3, 41, 18},
	{1, 44, 10, 45, 2},
	{62, 6, 43, 15, 61},
	{28, 55, 25, 21, 56},
	{27, 20, 39, 8, 14},
}

func rotl64Ref(v uint64, n uint) uint64 { return v<<n | v>>(64-n) }

func keccakF1600Ref(a *[5][5]uint64) {
	var c [5]uint64
	var d [5]uint64
	var b [5][5]uint64
	for round := 0; round < 24; round++ {
		// θ
		for x := 0; x < 5; x++ {
			c[x] = a[x][0] ^ a[x][1] ^ a[x][2] ^ a[x][3] ^ a[x][4]
		}
		for x := 0; x < 5; x++ {
			d[x] = c[(x+4)%5] ^ rotl64Ref(c[(x+1)%5], 1)
			for y := 0; y < 5; y++ {
				a[x][y] ^= d[x]
			}
		}
		// ρ and π
		for x := 0; x < 5; x++ {
			for y := 0; y < 5; y++ {
				b[y][(2*x+3*y)%5] = rotl64Ref(a[x][y], keccakRhoRef[x][y])
			}
		}
		// χ
		for x := 0; x < 5; x++ {
			for y := 0; y < 5; y++ {
				a[x][y] = b[x][y] ^ (^b[(x+1)%5][y] & b[(x+2)%5][y])
			}
		}
		// ι
		a[0][0] ^= keccakRC[round]
	}
}

// sum256Ref is the pre-change sponge over the reference permutation:
// every byte staged through the rate buffer.
func sum256Ref(data []byte) [32]byte {
	var a [5][5]uint64
	absorb := func(block []byte) {
		for i := 0; i < sha3Rate/8; i++ {
			a[i%5][i/5] ^= binary.LittleEndian.Uint64(block[i*8:])
		}
		keccakF1600Ref(&a)
	}
	for len(data) >= sha3Rate {
		absorb(data[:sha3Rate])
		data = data[sha3Rate:]
	}
	var last [sha3Rate]byte
	copy(last[:], data)
	last[len(data)] ^= 0x06
	last[sha3Rate-1] ^= 0x80
	absorb(last[:])
	var out [32]byte
	for i := 0; i < 4; i++ {
		binary.LittleEndian.PutUint64(out[i*8:], a[i%5][i/5])
	}
	return out
}

// testPattern is the deterministic message the length-boundary vectors
// hash: byte i is 7i+3 mod 256.
func testPattern(n int) []byte {
	m := make([]byte, n)
	for i := range m {
		m[i] = byte(i*7 + 3)
	}
	return m
}

func TestKeccakPermutationMatchesReference(t *testing.T) {
	// A splitmix64 stream gives dense, reproducible states; the zero state
	// and a chain of 50 dependent permutations cover the sparse end and
	// error accumulation.
	seed := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		seed += 0x9E3779B97F4A7C15
		z := seed
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	var flat [25]uint64
	var ref [5][5]uint64
	check := func(step int) {
		keccakF1600(&flat)
		keccakF1600Ref(&ref)
		for i := range flat {
			if flat[i] != ref[i%5][i/5] {
				t.Fatalf("step %d: lane %d = %#x, reference %#x", step, i, flat[i], ref[i%5][i/5])
			}
		}
	}
	for step := 0; step < 50; step++ { // zero state, then chained
		check(step)
	}
	for step := 0; step < 200; step++ {
		for i := range flat {
			flat[i] = next()
			ref[i%5][i/5] = flat[i]
		}
		check(step)
	}
}

// Length-boundary known answers (rate − 1, rate, rate + 1 bytes, and
// 1 MiB) over testPattern; the digests were computed with an independent
// SHA3-256 (Python hashlib).
func TestSHA3RateBoundaryVectors(t *testing.T) {
	cases := []struct {
		n    int
		want string
	}{
		{135, "d9dcf1f98e49a79b0643a9e68fef48079ff8777c5e7e7f93469ded65f192ac71"},
		{136, "743bd32e775ac7387a57d4d574c89ddef5ebcb08bb5cc6b88c55a27b5035cc45"},
		{137, "01d47e8d6dce6e3dcbf1baa6f845b6ace4ef74bd17da8176ecc49bc35dbe5d21"},
		{1 << 20, "12941b1ec9bce797417c256939d64b1b56c7863b0af1d9ef0fdc571167134b63"},
	}
	for _, c := range cases {
		msg := testPattern(c.n)
		got := Sum256(msg)
		if hex.EncodeToString(got[:]) != c.want {
			t.Errorf("SHA3-256(pattern[%d]) = %x, want %s", c.n, got, c.want)
		}
		if ref := sum256Ref(msg); got != ref {
			t.Errorf("SHA3-256(pattern[%d]) disagrees with the reference sponge", c.n)
		}
	}
}

// Write absorbs whole blocks straight from its argument and buffers only
// the tail; every way of splitting a message around the rate boundary
// must hash like the one-shot call.
func TestSHA3SplitWrites(t *testing.T) {
	msg := testPattern(3*sha3Rate + 17)
	want := sum256Ref(msg)
	for first := 0; first <= len(msg); first++ {
		for _, second := range []int{0, 1, sha3Rate - 1, sha3Rate, sha3Rate + 1} {
			var s sha3State
			s.Write(msg[:first])
			mid := first + second
			if mid > len(msg) {
				mid = len(msg)
			}
			s.Write(msg[first:mid])
			s.Write(msg[mid:])
			if got := s.Sum256(); got != want {
				t.Fatalf("split %d+%d: digest differs from one-shot", first, second)
			}
		}
	}
}

// AppendFrs frames the label and length once per call; the absorbed
// bytes must stay those of one AppendFr per element.
func TestAppendFrsMatchesAppendFr(t *testing.T) {
	vs := make([]ff.Fr, 37)
	for i := range vs {
		vs[i] = ff.NewFr(uint64(i)*0x9E3779B97F4A7C15 + 1)
	}
	for _, n := range []int{0, 1, 2, len(vs)} {
		a, b := New("test"), New("test")
		a.AppendFrs("label", vs[:n])
		for i := 0; i < n; i++ {
			b.AppendFr("label", &vs[i])
		}
		ca, cb := a.ChallengeFr("c"), b.ChallengeFr("c")
		if !ca.Equal(&cb) || a.Absorbed != b.Absorbed {
			t.Fatalf("n=%d: AppendFrs and per-element AppendFr diverge", n)
		}
	}
}

func BenchmarkSHA3_1MiB(b *testing.B) {
	msg := testPattern(1 << 20)
	b.SetBytes(int64(len(msg)))
	for i := 0; i < b.N; i++ {
		Sum256(msg)
	}
}

func BenchmarkSHA3Reference_1MiB(b *testing.B) {
	msg := testPattern(1 << 20)
	b.SetBytes(int64(len(msg)))
	for i := 0; i < b.N; i++ {
		sum256Ref(msg)
	}
}
