// Package des implements the DES and Triple-DES (EDE) block ciphers from
// scratch, following FIPS 46-3.
//
// DES/3DES is the workhorse symmetric cipher of the security protocols the
// paper analyzes (Section 3.2 anchors its processing-gap figure on a
// 3DES+SHA protocol), and its bit-permutation structure is the canonical
// example of security processing that word-oriented embedded CPUs execute
// poorly (Section 4.2.1).
//
// Every block runs one round engine (fast.go) with packed round keys and
// table-free IP/FP; a 3DES block costs one IP, 48 rounds and one FP.
// DecryptBlocks runs two independent blocks per pass, which CBC
// decryption uses.
//
// The package additionally exposes the round internals (Feistel function,
// S-box lookups) needed by internal/attack/dpa to mount a first-round
// correlation power attack.
package des

import (
	"fmt"
	"math/bits"

	"repro/internal/crypto/bitutil"
)

// BlockSize is the DES block size in bytes.
const BlockSize = 8

// KeySize is the single-DES key size in bytes (including parity bits).
const KeySize = 8

// KeySizeError reports an invalid key length.
type KeySizeError int

func (k KeySizeError) Error() string {
	return fmt.Sprintf("des: invalid key size %d", int(k))
}

// Cipher is a single-DES block cipher instance.
type Cipher struct {
	keys [16]roundKey
}

// NewCipher creates a DES cipher from an 8-byte key.
func NewCipher(key []byte) (*Cipher, error) {
	if len(key) != KeySize {
		return nil, KeySizeError(len(key))
	}
	c := new(Cipher)
	c.expandKey(key)
	return c, nil
}

// BlockSize returns the cipher block size (8).
func (c *Cipher) BlockSize() int { return BlockSize }

// Encrypt encrypts the 8-byte block src into dst.
func (c *Cipher) Encrypt(dst, src []byte) {
	l, r := initial(src)
	bitutil.Store64(dst, final(c.rounds(l, r, 0)))
}

// Decrypt decrypts the 8-byte block src into dst.
func (c *Cipher) Decrypt(dst, src []byte) {
	l, r := initial(src)
	bitutil.Store64(dst, final(c.rounds(l, r, 15)))
}

// Subkey returns round subkey i (0-based, right-aligned 48 bits). It is
// exported for the key-schedule tests and the DPA attack's verification
// step.
func (c *Cipher) Subkey(i int) uint64 { return c.keys[i].unpack() }

// rounds runs one 16-round pass, two rounds per step so the halves never
// swap. rev = 15 walks the keys backwards (i^15 = 15-i), rev = 0 forwards.
func (c *Cipher) rounds(l, r uint32, rev int) (uint32, uint32) {
	for i := 0; i < 16; i += 2 {
		l ^= feistel(r, c.keys[(i^rev)&15])
		r ^= feistel(l, c.keys[(i+1^rev)&15])
	}
	return l, r
}

// rounds2 is rounds over two independent blocks. Each round is latency
// bound (key XOR, byte extraction, an L1 load, the XOR tree), so
// interleaving two lanes lets one lane's chain run in the other's
// stalls.
func (c *Cipher) rounds2(l0, r0, l1, r1 uint32, rev int) (uint32, uint32, uint32, uint32) {
	for i := 0; i < 16; i += 2 {
		k := c.keys[(i^rev)&15]
		l0 ^= feistel(r0, k)
		l1 ^= feistel(r1, k)
		k = c.keys[(i+1^rev)&15]
		r0 ^= feistel(l0, k)
		r1 ^= feistel(l1, k)
	}
	return l0, r0, l1, r1
}

// DecryptBlocks decrypts each whole block of src into dst (as ECB would),
// two blocks per pass. dst may alias src exactly. CBC decryption, whose
// blocks are independent, runs through it.
func (c *Cipher) DecryptBlocks(dst, src []byte) {
	for ; len(src) >= 2*BlockSize; dst, src = dst[2*BlockSize:], src[2*BlockSize:] {
		l0, r0 := initial(src)
		l1, r1 := initial(src[BlockSize:])
		l0, r0, l1, r1 = c.rounds2(l0, r0, l1, r1, 15)
		bitutil.Store64(dst, final(l0, r0))
		bitutil.Store64(dst[BlockSize:], final(l1, r1))
	}
	if len(src) >= BlockSize {
		c.Decrypt(dst, src)
	}
}

// EncryptWithFault encrypts one block but flips a single bit of the
// right half entering the given round (0-based) — the computational
// fault a glitch induces, modeled at the exact point the
// Biham-Shamir differential fault analysis [43] assumes (round=15 flips
// R15 ahead of the final round). It exists for the DFA experiment in
// internal/attack/dfa.
func (c *Cipher) EncryptWithFault(dst, src []byte, round int, bit uint) {
	l, r := initial(src)
	for i, k := range c.keys {
		if i == round {
			r ^= bits.RotateLeft32(1<<(bit%32), 1)
		}
		l, r = r, l^feistel(r, k)
	}
	bitutil.Store64(dst, final(l, r))
}

// PInverse applies the inverse of the round permutation P — the DFA
// attack uses it to map ciphertext differences back to S-box output
// differences.
func PInverse(v uint32) uint32 {
	var out uint32
	for pos, src := range roundPermutation {
		// P maps input bit src (1-based from MSB) to output bit pos+1.
		bit := v >> uint(32-(pos+1)) & 1
		out |= bit << uint(32-int(src))
	}
	return out
}

// Feistel computes the DES round function f(R, K) for a 32-bit half block
// and a 48-bit subkey. Exported for the DPA attack model; it runs the
// cipher's own round function, which matches the reference
// expand/substitute/permute pipeline bit for bit (see the equivalence test).
func Feistel(right uint32, subkey uint64) uint32 {
	return bits.RotateLeft32(feistel(bits.RotateLeft32(right, 1), packKey(subkey)), -1)
}

// SBox performs the lookup of S-box `box` (0-7) on a 6-bit input, where the
// row is formed by bits 1 and 6 and the column by bits 2-5, per FIPS 46-3.
func SBox(box int, in6 uint8) uint8 {
	row := (in6>>4)&2 | in6&1
	col := (in6 >> 1) & 0xf
	return sBoxes[box][row][col]
}

// ExpandHalf applies the DES expansion permutation E to a 32-bit half
// block, returning 48 bits. Exported for the DPA attack model, which needs
// the per-S-box input chunks.
func ExpandHalf(right uint32) uint64 {
	return bitutil.PermuteBlock(uint64(right), expansion, 32)
}

// InitialPermute applies the DES initial permutation to a 64-bit block, as
// delta swaps of 16-bit groups, bytes, nibbles, bit pairs and single bits.
func InitialPermute(b uint64) uint64 {
	b = deltaSwap(b, 0x000000000000ffff, 48)
	b = deltaSwap(b, 0x00000000ff00ff00, 24)
	b = deltaSwap(b, 0x0000f0f00000f0f0, 12)
	b = deltaSwap(b, 0x00cc00cc00cc00cc, 6)
	return deltaSwap(b, 0x0000000055555555, 33)
}

// TripleCipher is a 3DES (EDE) cipher instance. With a 24-byte key the
// three stages use independent keys (keying option 1); with a 16-byte key
// the first and third stages share a key (keying option 2).
type TripleCipher struct {
	k1, k2, k3 Cipher
}

// NewTripleCipher creates a 3DES cipher from a 16- or 24-byte key.
func NewTripleCipher(key []byte) (*TripleCipher, error) {
	var k1, k2, k3 []byte
	switch len(key) {
	case 24:
		k1, k2, k3 = key[0:8], key[8:16], key[16:24]
	case 16:
		k1, k2, k3 = key[0:8], key[8:16], key[0:8]
	default:
		return nil, KeySizeError(len(key))
	}
	c := new(TripleCipher)
	c.k1.expandKey(k1)
	c.k2.expandKey(k2)
	c.k3.expandKey(k3)
	return c, nil
}

// BlockSize returns the cipher block size (8).
func (c *TripleCipher) BlockSize() int { return BlockSize }

// Encrypt performs EDE encryption of one block.
func (c *TripleCipher) Encrypt(dst, src []byte) { ede(dst, src, &c.k1, &c.k2, &c.k3, 0) }

// Decrypt performs EDE decryption of one block.
func (c *TripleCipher) Decrypt(dst, src []byte) { ede(dst, src, &c.k3, &c.k2, &c.k1, 15) }

// DecryptBlocks decrypts each whole block of src into dst (as ECB would),
// two blocks per pass. dst may alias src exactly.
func (c *TripleCipher) DecryptBlocks(dst, src []byte) {
	for ; len(src) >= 2*BlockSize; dst, src = dst[2*BlockSize:], src[2*BlockSize:] {
		ede2(dst, src, &c.k3, &c.k2, &c.k1, 15)
	}
	if len(src) >= BlockSize {
		c.Decrypt(dst, src)
	}
}

// ede runs three passes between one IP and one FP, the middle one against
// rev. Halves enter the next pass swapped, as FP then IP would leave them.
func ede(dst, src []byte, a, b, c *Cipher, rev int) {
	l, r := initial(src)
	l, r = a.rounds(l, r, rev)
	r, l = b.rounds(r, l, 15-rev)
	bitutil.Store64(dst, final(c.rounds(l, r, rev)))
}

// ede2 is ede over the two blocks at src, one lane each.
func ede2(dst, src []byte, a, b, c *Cipher, rev int) {
	l0, r0 := initial(src)
	l1, r1 := initial(src[BlockSize:])
	l0, r0, l1, r1 = a.rounds2(l0, r0, l1, r1, rev)
	r0, l0, r1, l1 = b.rounds2(r0, l0, r1, l1, 15-rev)
	l0, r0, l1, r1 = c.rounds2(l0, r0, l1, r1, rev)
	bitutil.Store64(dst, final(l0, r0))
	bitutil.Store64(dst[BlockSize:], final(l1, r1))
}
