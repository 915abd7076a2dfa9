// Package transcript implements SHA3-256 (Keccak) from scratch and the
// Fiat–Shamir transcript HyperPlonk uses to derive verifier challenges.
// The paper (§3.3.6) notes SHA3 acts as the order-enforcing mechanism
// between protocol steps: every prover message is absorbed before any
// subsequent challenge is squeezed.
package transcript

import (
	"encoding/binary"
	"math/bits"
)

// keccak round constants.
var keccakRC = [24]uint64{
	0x0000000000000001, 0x0000000000008082, 0x800000000000808A, 0x8000000080008000,
	0x000000000000808B, 0x0000000080000001, 0x8000000080008081, 0x8000000000008009,
	0x000000000000008A, 0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
	0x000000008000808B, 0x800000000000008B, 0x8000000000008089, 0x8000000000008003,
	0x8000000000008002, 0x8000000000000080, 0x000000000000800A, 0x800000008000000A,
	0x8000000080008081, 0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
}

// keccakF1600 applies the Keccak-f[1600] permutation to the flat lane
// state s[x+5y]. The 25 lanes live in locals and every step is written
// out per lane, two rounds per iteration ping-ponging between the a and
// e lane sets, so a round is straight-line XOR/rotate/AND-NOT code with
// no index arithmetic. ρ and π are applied row by row of the destination
// so only five rotated lanes are live when χ consumes them.
func keccakF1600(s *[25]uint64) {
	a0, a1, a2, a3, a4 := s[0], s[1], s[2], s[3], s[4]
	a5, a6, a7, a8, a9 := s[5], s[6], s[7], s[8], s[9]
	a10, a11, a12, a13, a14 := s[10], s[11], s[12], s[13], s[14]
	a15, a16, a17, a18, a19 := s[15], s[16], s[17], s[18], s[19]
	a20, a21, a22, a23, a24 := s[20], s[21], s[22], s[23], s[24]
	var c0, c1, c2, c3, c4, d0, d1, d2, d3, d4, b0, b1, b2, b3, b4 uint64
	for round := 0; round < 24; round += 2 {
		// Even round: a → e.
		c0 = a0 ^ a5 ^ a10 ^ a15 ^ a20
		c1 = a1 ^ a6 ^ a11 ^ a16 ^ a21
		c2 = a2 ^ a7 ^ a12 ^ a17 ^ a22
		c3 = a3 ^ a8 ^ a13 ^ a18 ^ a23
		c4 = a4 ^ a9 ^ a14 ^ a19 ^ a24
		d0 = c4 ^ bits.RotateLeft64(c1, 1)
		d1 = c0 ^ bits.RotateLeft64(c2, 1)
		d2 = c1 ^ bits.RotateLeft64(c3, 1)
		d3 = c2 ^ bits.RotateLeft64(c4, 1)
		d4 = c3 ^ bits.RotateLeft64(c0, 1)
		b0 = a0 ^ d0
		b1 = bits.RotateLeft64(a6^d1, 44)
		b2 = bits.RotateLeft64(a12^d2, 43)
		b3 = bits.RotateLeft64(a18^d3, 21)
		b4 = bits.RotateLeft64(a24^d4, 14)
		e0 := b0 ^ (^b1 & b2) ^ keccakRC[round]
		e1 := b1 ^ (^b2 & b3)
		e2 := b2 ^ (^b3 & b4)
		e3 := b3 ^ (^b4 & b0)
		e4 := b4 ^ (^b0 & b1)
		b0 = bits.RotateLeft64(a3^d3, 28)
		b1 = bits.RotateLeft64(a9^d4, 20)
		b2 = bits.RotateLeft64(a10^d0, 3)
		b3 = bits.RotateLeft64(a16^d1, 45)
		b4 = bits.RotateLeft64(a22^d2, 61)
		e5 := b0 ^ (^b1 & b2)
		e6 := b1 ^ (^b2 & b3)
		e7 := b2 ^ (^b3 & b4)
		e8 := b3 ^ (^b4 & b0)
		e9 := b4 ^ (^b0 & b1)
		b0 = bits.RotateLeft64(a1^d1, 1)
		b1 = bits.RotateLeft64(a7^d2, 6)
		b2 = bits.RotateLeft64(a13^d3, 25)
		b3 = bits.RotateLeft64(a19^d4, 8)
		b4 = bits.RotateLeft64(a20^d0, 18)
		e10 := b0 ^ (^b1 & b2)
		e11 := b1 ^ (^b2 & b3)
		e12 := b2 ^ (^b3 & b4)
		e13 := b3 ^ (^b4 & b0)
		e14 := b4 ^ (^b0 & b1)
		b0 = bits.RotateLeft64(a4^d4, 27)
		b1 = bits.RotateLeft64(a5^d0, 36)
		b2 = bits.RotateLeft64(a11^d1, 10)
		b3 = bits.RotateLeft64(a17^d2, 15)
		b4 = bits.RotateLeft64(a23^d3, 56)
		e15 := b0 ^ (^b1 & b2)
		e16 := b1 ^ (^b2 & b3)
		e17 := b2 ^ (^b3 & b4)
		e18 := b3 ^ (^b4 & b0)
		e19 := b4 ^ (^b0 & b1)
		b0 = bits.RotateLeft64(a2^d2, 62)
		b1 = bits.RotateLeft64(a8^d3, 55)
		b2 = bits.RotateLeft64(a14^d4, 39)
		b3 = bits.RotateLeft64(a15^d0, 41)
		b4 = bits.RotateLeft64(a21^d1, 2)
		e20 := b0 ^ (^b1 & b2)
		e21 := b1 ^ (^b2 & b3)
		e22 := b2 ^ (^b3 & b4)
		e23 := b3 ^ (^b4 & b0)
		e24 := b4 ^ (^b0 & b1)
		// Odd round: e → a.
		c0 = e0 ^ e5 ^ e10 ^ e15 ^ e20
		c1 = e1 ^ e6 ^ e11 ^ e16 ^ e21
		c2 = e2 ^ e7 ^ e12 ^ e17 ^ e22
		c3 = e3 ^ e8 ^ e13 ^ e18 ^ e23
		c4 = e4 ^ e9 ^ e14 ^ e19 ^ e24
		d0 = c4 ^ bits.RotateLeft64(c1, 1)
		d1 = c0 ^ bits.RotateLeft64(c2, 1)
		d2 = c1 ^ bits.RotateLeft64(c3, 1)
		d3 = c2 ^ bits.RotateLeft64(c4, 1)
		d4 = c3 ^ bits.RotateLeft64(c0, 1)
		b0 = e0 ^ d0
		b1 = bits.RotateLeft64(e6^d1, 44)
		b2 = bits.RotateLeft64(e12^d2, 43)
		b3 = bits.RotateLeft64(e18^d3, 21)
		b4 = bits.RotateLeft64(e24^d4, 14)
		a0 = b0 ^ (^b1 & b2) ^ keccakRC[round+1]
		a1 = b1 ^ (^b2 & b3)
		a2 = b2 ^ (^b3 & b4)
		a3 = b3 ^ (^b4 & b0)
		a4 = b4 ^ (^b0 & b1)
		b0 = bits.RotateLeft64(e3^d3, 28)
		b1 = bits.RotateLeft64(e9^d4, 20)
		b2 = bits.RotateLeft64(e10^d0, 3)
		b3 = bits.RotateLeft64(e16^d1, 45)
		b4 = bits.RotateLeft64(e22^d2, 61)
		a5 = b0 ^ (^b1 & b2)
		a6 = b1 ^ (^b2 & b3)
		a7 = b2 ^ (^b3 & b4)
		a8 = b3 ^ (^b4 & b0)
		a9 = b4 ^ (^b0 & b1)
		b0 = bits.RotateLeft64(e1^d1, 1)
		b1 = bits.RotateLeft64(e7^d2, 6)
		b2 = bits.RotateLeft64(e13^d3, 25)
		b3 = bits.RotateLeft64(e19^d4, 8)
		b4 = bits.RotateLeft64(e20^d0, 18)
		a10 = b0 ^ (^b1 & b2)
		a11 = b1 ^ (^b2 & b3)
		a12 = b2 ^ (^b3 & b4)
		a13 = b3 ^ (^b4 & b0)
		a14 = b4 ^ (^b0 & b1)
		b0 = bits.RotateLeft64(e4^d4, 27)
		b1 = bits.RotateLeft64(e5^d0, 36)
		b2 = bits.RotateLeft64(e11^d1, 10)
		b3 = bits.RotateLeft64(e17^d2, 15)
		b4 = bits.RotateLeft64(e23^d3, 56)
		a15 = b0 ^ (^b1 & b2)
		a16 = b1 ^ (^b2 & b3)
		a17 = b2 ^ (^b3 & b4)
		a18 = b3 ^ (^b4 & b0)
		a19 = b4 ^ (^b0 & b1)
		b0 = bits.RotateLeft64(e2^d2, 62)
		b1 = bits.RotateLeft64(e8^d3, 55)
		b2 = bits.RotateLeft64(e14^d4, 39)
		b3 = bits.RotateLeft64(e15^d0, 41)
		b4 = bits.RotateLeft64(e21^d1, 2)
		a20 = b0 ^ (^b1 & b2)
		a21 = b1 ^ (^b2 & b3)
		a22 = b2 ^ (^b3 & b4)
		a23 = b3 ^ (^b4 & b0)
		a24 = b4 ^ (^b0 & b1)
	}
	s[0], s[1], s[2], s[3], s[4] = a0, a1, a2, a3, a4
	s[5], s[6], s[7], s[8], s[9] = a5, a6, a7, a8, a9
	s[10], s[11], s[12], s[13], s[14] = a10, a11, a12, a13, a14
	s[15], s[16], s[17], s[18], s[19] = a15, a16, a17, a18, a19
	s[20], s[21], s[22], s[23], s[24] = a20, a21, a22, a23, a24
}

const sha3Rate = 136 // SHA3-256 rate in bytes

// sha3State is an incremental SHA3-256 sponge.
type sha3State struct {
	a      [25]uint64
	buf    [sha3Rate]byte
	offset int
}

// absorbBlock XORs one rate-sized block into the state lane by lane and
// permutes.
func (s *sha3State) absorbBlock(block []byte) {
	_ = block[sha3Rate-1]
	for i := 0; i < sha3Rate/8; i++ {
		s.a[i] ^= binary.LittleEndian.Uint64(block[i*8:])
	}
	keccakF1600(&s.a)
}

// Write absorbs p into the sponge. It never fails. Whole blocks are
// absorbed straight from p; only a trailing partial block is buffered.
func (s *sha3State) Write(p []byte) (int, error) {
	n := len(p)
	if s.offset > 0 {
		take := copy(s.buf[s.offset:], p)
		s.offset += take
		p = p[take:]
		if s.offset < sha3Rate {
			return n, nil
		}
		s.absorbBlock(s.buf[:])
		s.offset = 0
	}
	for len(p) >= sha3Rate {
		s.absorbBlock(p)
		p = p[sha3Rate:]
	}
	s.offset = copy(s.buf[:], p)
	return n, nil
}

// Sum256 finalizes a copy of the sponge and returns the 32-byte digest,
// leaving the receiver usable for further writes.
func (s *sha3State) Sum256() [32]byte {
	clone := *s
	// SHA3 domain padding: 0x06 ... 0x80.
	for i := clone.offset; i < sha3Rate; i++ {
		clone.buf[i] = 0
	}
	clone.buf[clone.offset] ^= 0x06
	clone.buf[sha3Rate-1] ^= 0x80
	clone.absorbBlock(clone.buf[:])
	var out [32]byte
	for i := 0; i < 4; i++ {
		binary.LittleEndian.PutUint64(out[i*8:], clone.a[i])
	}
	return out
}

// Sum256 returns the SHA3-256 digest of data.
func Sum256(data []byte) [32]byte {
	var s sha3State
	s.Write(data)
	return s.Sum256()
}
