package des

import (
	"math/bits"

	"repro/internal/crypto/bitutil"
)

// The round engine. DES's bit permutations are the canonical work a
// word-oriented CPU does badly (Section 4.2.1), so none is left per round
// and none needs a table. Each SP table fuses an S-box with P. E is free:
// in a half rotated left by one bit, the odd S-boxes' inputs sit at byte
// boundaries and a rotation by four exposes the even ones, so round keys
// are packed to match and the SP tables are pre-rotated. IP and FP are
// five delta swaps each, paid once per 3DES block since FP∘IP is the
// identity.

// spN[v] is P(S_N(v&0x3f)) placed at S-box N's output position, rotated
// left by one bit. The tables take a whole byte, so a lookup needs no
// mask, and they are eight flat arrays rather than one [8][256], which
// keeps feistel under Go's inlining budget.
var sp0, sp1, sp2, sp3, sp4, sp5, sp6, sp7 [256]uint32

// pc1Tab[i][v] is PC1 of key nibble i (from the top) holding v, and
// pc2Tab[i][v] the packed PC2 of nibble i of the 56-bit C‖D holding v.
// Both permutations only move bits, so a key's image is the XOR of its
// nibbles' images.
var (
	pc1Tab [16][16]uint64
	pc2Tab [14][16]uint64
)

func init() {
	for b, tab := range [8]*[256]uint32{&sp0, &sp1, &sp2, &sp3, &sp4, &sp5, &sp6, &sp7} {
		for v := range tab {
			out := uint64(SBox(b, uint8(v&0x3f))) << uint(4*(7-b))
			tab[v] = bits.RotateLeft32(uint32(bitutil.PermuteBlock(out, roundPermutation, 32)), 1)
		}
	}
	for i := range pc1Tab {
		for v := range pc1Tab[i] {
			pc1Tab[i][v] = bitutil.PermuteBlock(uint64(v)<<uint(60-4*i), permutedChoice1, 64)
		}
	}
	for i := range pc2Tab {
		for v := range pc2Tab[i] {
			rk := packKey(bitutil.PermuteBlock(uint64(v)<<uint(52-4*i), permutedChoice2, 56))
			pc2Tab[i][v] = uint64(rk.even)<<32 | uint64(rk.odd)
		}
	}
}

// roundKey is a 48-bit subkey packed for feistel: S-box b's 6-bit chunk
// sits in byte 3-b/2 of even (even b) or odd (odd b). A struct, unlike a
// [2]uint32, stays in registers.
type roundKey struct{ even, odd uint32 }

func packKey(k uint64) (rk roundKey) {
	for b := 0; b < 8; b += 2 {
		rk.even |= uint32(k>>uint(42-6*b)) & 0x3f << uint(24-4*b)
		rk.odd |= uint32(k>>uint(36-6*b)) & 0x3f << uint(24-4*b)
	}
	return rk
}

func (rk roundKey) unpack() (k uint64) {
	for b := 0; b < 8; b += 2 {
		k |= uint64(rk.even>>uint(24-4*b)&0x3f)<<uint(42-6*b) | uint64(rk.odd>>uint(24-4*b)&0x3f)<<uint(36-6*b)
	}
	return k
}

// expandKey runs the key schedule: PC1, then per round the C/D rotation
// and PC2, each as nibble-table lookups.
func (c *Cipher) expandKey(key []byte) {
	k := bitutil.Load64(key)
	var cd uint64
	for i := range pc1Tab {
		cd ^= pc1Tab[i][k>>uint(60-4*i)&0xf]
	}
	ch, dh := uint32(cd>>28), uint32(cd&(1<<28-1))
	for r, shift := range keyShifts {
		ch = bitutil.RotateLeft28(ch, shift)
		dh = bitutil.RotateLeft28(dh, shift)
		rk := pc2Tab[0][ch>>24] ^ pc2Tab[1][ch>>20&0xf] ^ pc2Tab[2][ch>>16&0xf] ^ pc2Tab[3][ch>>12&0xf] ^
			pc2Tab[4][ch>>8&0xf] ^ pc2Tab[5][ch>>4&0xf] ^ pc2Tab[6][ch&0xf] ^
			pc2Tab[7][dh>>24] ^ pc2Tab[8][dh>>20&0xf] ^ pc2Tab[9][dh>>16&0xf] ^ pc2Tab[10][dh>>12&0xf] ^
			pc2Tab[11][dh>>8&0xf] ^ pc2Tab[12][dh>>4&0xf] ^ pc2Tab[13][dh&0xf]
		c.keys[r] = roundKey{uint32(rk >> 32), uint32(rk)}
	}
}

// feistel is the one DES round function: f(R, K) on a half held rotated
// left by one bit, returning the output rotated the same way. The odd
// S-boxes read r^K's bytes, the even ones those of r rotated by four; the
// eight lookups are XORed as a tree so no chain is longer than three.
// It stays inlinable (cost 69 of 80 under go build -gcflags=-m), so no
// pass pays a call per round.
func feistel(r uint32, k roundKey) uint32 {
	t := r ^ k.odd
	u := bits.RotateLeft32(r, -4) ^ k.even
	return ((sp1[t>>24] ^ sp3[uint8(t>>16)]) ^ (sp5[uint8(t>>8)] ^ sp7[uint8(t)])) ^
		((sp0[u>>24] ^ sp2[uint8(u>>16)]) ^ (sp4[uint8(u>>8)] ^ sp6[uint8(u)]))
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
