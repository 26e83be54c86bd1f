package des

import (
	"math/bits"

	"repro/internal/crypto/bitutil"
)

// The round engine. DES's bit permutations are the canonical work a
// word-oriented CPU does badly (Section 4.2.1), so none is left per round
// and none needs a table. spBox fuses each S-box with P. E is free: in a
// half rotated left by one bit, the odd S-boxes' inputs sit at byte
// boundaries and a rotation by four exposes the even ones, so round keys
// are packed to match and spBox is pre-rotated. IP and FP are five delta
// swaps each, paid once per 3DES block since FP∘IP is the identity.

// spBox[b][v] is P(S_b(v)) placed at S-box b's output position, rotated
// left by one bit.
var spBox [8][64]uint32

func init() {
	for b := 0; b < 8; b++ {
		for v := 0; v < 64; v++ {
			out := uint64(SBox(b, uint8(v))) << uint(4*(7-b))
			spBox[b][v] = bits.RotateLeft32(uint32(bitutil.PermuteBlock(out, roundPermutation, 32)), 1)
		}
	}
}

// roundKey is a 48-bit subkey packed for feistel: word b&1 holds S-box
// b's 6-bit chunk in byte 3-b/2 (even boxes in [0], odd in [1]).
type roundKey [2]uint32

func packKey(k uint64) (rk roundKey) {
	for b := 0; b < 8; b++ {
		rk[b&1] |= uint32(k>>uint(42-6*b)) & 0x3f << uint(24-8*(b>>1))
	}
	return rk
}

func (rk roundKey) unpack() (k uint64) {
	for b := 0; b < 8; b++ {
		k |= uint64(rk[b&1]>>uint(24-8*(b>>1))&0x3f) << uint(42-6*b)
	}
	return k
}

// feistel is the one DES round function: f(R, K) on a half held rotated
// left by one bit, returning the output rotated the same way.
func feistel(r uint32, k roundKey) uint32 {
	t := r ^ k[1]
	u := bits.RotateLeft32(r, -4) ^ k[0]
	return spBox[1][t>>24&0x3f] ^ spBox[3][t>>16&0x3f] ^ spBox[5][t>>8&0x3f] ^ spBox[7][t&0x3f] ^
		spBox[0][u>>24&0x3f] ^ spBox[2][u>>16&0x3f] ^ spBox[4][u>>8&0x3f] ^ spBox[6][u&0x3f]
}

// deltaSwap exchanges the mask bits of x with those shift places above.
func deltaSwap(x, mask uint64, shift uint) uint64 {
	t := (x>>shift ^ x) & mask
	return x ^ t ^ t<<shift
}

// permuteFinal is FP = IP⁻¹: InitialPermute's involutive swaps reversed.
func permuteFinal(b uint64) uint64 {
	b = deltaSwap(b, 0x0000000055555555, 33)
	b = deltaSwap(b, 0x00cc00cc00cc00cc, 6)
	b = deltaSwap(b, 0x0000f0f00000f0f0, 12)
	b = deltaSwap(b, 0x00000000ff00ff00, 24)
	return deltaSwap(b, 0x000000000000ffff, 48)
}

// initial applies IP and returns the halves rotated left by one bit.
func initial(src []byte) (l, r uint32) {
	b := InitialPermute(bitutil.Load64(src))
	return bits.RotateLeft32(uint32(b>>32), 1), bits.RotateLeft32(uint32(b), 1)
}

// final unrotates and swaps the halves (round 16 has no swap), then FP.
func final(l, r uint32) uint64 {
	return permuteFinal(uint64(bits.RotateLeft32(r, -1))<<32 | uint64(bits.RotateLeft32(l, -1)))
}
