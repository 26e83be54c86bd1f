// Package aes implements the AES block cipher from scratch (FIPS 197),
// supporting 128-, 192- and 256-bit keys.
//
// The paper highlights AES as the then-new DES replacement that protocol
// revisions (TLS, June 2002) and hardware accelerators must absorb
// (Sections 3.1, 4.1) — the flexibility problem in one algorithm.
//
// The state is a flat 16-byte array in FIPS 197 column-major order, so a
// block loads and stores with a plain copy and the round keys share its
// layout. Each round fuses SubBytes and ShiftRows into one pass and
// computes MixColumns with branch-free xtime doubling; InvMixColumns is a
// (04x²+05) pre-multiply followed by MixColumns. There are no T-tables.
// The S-box step stays one table lookup per byte on purpose: it is the
// software baseline the paper's accelerator discussion starts from, and
// its output is the leakage point internal/attack/dpa targets.
package aes

import "fmt"

// BlockSize is the AES block size in bytes.
const BlockSize = 16

// KeySizeError reports an invalid key length.
type KeySizeError int

func (k KeySizeError) Error() string {
	return fmt.Sprintf("aes: invalid key size %d", int(k))
}

var (
	sbox    [256]byte
	invSbox [256]byte
)

// gfMul multiplies two elements of GF(2^8) modulo x^8+x^4+x^3+x+1. It
// is the slow, obviously correct multiply used only to derive the S-box.
func gfMul(a, b byte) byte {
	var p byte
	for b != 0 {
		if b&1 != 0 {
			p ^= a
		}
		hi := a & 0x80
		a <<= 1
		if hi != 0 {
			a ^= 0x1b
		}
		b >>= 1
	}
	return p
}

func init() {
	// Build the S-box from the GF(2^8) inverse and the affine transform,
	// rather than transcribing 256 constants.
	var inv [256]byte
	for a := 1; a < 256; a++ {
		for b := 1; b < 256; b++ {
			if gfMul(byte(a), byte(b)) == 1 {
				inv[a] = byte(b)
				break
			}
		}
	}
	for i := 0; i < 256; i++ {
		x := inv[i]
		s := x ^ rotl8(x, 1) ^ rotl8(x, 2) ^ rotl8(x, 3) ^ rotl8(x, 4) ^ 0x63
		sbox[i] = s
		invSbox[s] = byte(i)
	}
}

func rotl8(b byte, n uint) byte { return b<<n | b>>(8-n) }

// xtime multiplies b by x (that is, {02}) in GF(2^8), without a branch
// on the high bit.
func xtime(b byte) byte { return b<<1 ^ 0x1b&-(b>>7) }

// SBox returns the AES S-box value for b. Exported for the DPA attack
// model, which predicts the Hamming weight of first-round S-box outputs.
func SBox(b byte) byte { return sbox[b] }

// Cipher is an AES block cipher instance.
type Cipher struct {
	rk     [15][16]byte // round keys, in the state's column-major layout
	rounds int
}

// NewCipher creates an AES cipher from a 16-, 24- or 32-byte key.
func NewCipher(key []byte) (*Cipher, error) {
	var rounds int
	switch len(key) {
	case 16:
		rounds = 10
	case 24:
		rounds = 12
	case 32:
		rounds = 14
	default:
		return nil, KeySizeError(len(key))
	}
	c := &Cipher{rounds: rounds}
	c.expandKey(key)
	return c, nil
}

// BlockSize returns the cipher block size (16).
func (c *Cipher) BlockSize() int { return BlockSize }

// expandKey fills the round keys. Word i of the FIPS 197 schedule is
// bytes 4i..4i+3 of the concatenated round keys, which is exactly the
// column-major layout of the state.
func (c *Cipher) expandKey(key []byte) {
	var w [15 * 16]byte
	nk := len(key) / 4
	nw := 4 * (c.rounds + 1)
	copy(w[:], key)
	rcon := byte(1)
	for i := nk; i < nw; i++ {
		t := [4]byte(w[4*i-4 : 4*i])
		if i%nk == 0 {
			t = [4]byte{sbox[t[1]] ^ rcon, sbox[t[2]], sbox[t[3]], sbox[t[0]]}
			rcon = xtime(rcon)
		} else if nk > 6 && i%nk == 4 {
			t = [4]byte{sbox[t[0]], sbox[t[1]], sbox[t[2]], sbox[t[3]]}
		}
		for j := 0; j < 4; j++ {
			w[4*i+j] = w[4*(i-nk)+j] ^ t[j]
		}
	}
	for r := 0; r <= c.rounds; r++ {
		c.rk[r] = [16]byte(w[16*r:])
	}
}

func addRoundKey(s, rk *[16]byte) {
	for i := range s {
		s[i] ^= rk[i]
	}
}

// subShift is SubBytes and ShiftRows in one pass: byte (row r, column c)
// of the result is the S-box of byte (r, c+r mod 4) of the input.
func subShift(s *[16]byte) {
	*s = [16]byte{
		sbox[s[0]], sbox[s[5]], sbox[s[10]], sbox[s[15]],
		sbox[s[4]], sbox[s[9]], sbox[s[14]], sbox[s[3]],
		sbox[s[8]], sbox[s[13]], sbox[s[2]], sbox[s[7]],
		sbox[s[12]], sbox[s[1]], sbox[s[6]], sbox[s[11]],
	}
}

// invSubShift is InvShiftRows and InvSubBytes in one pass: byte (r, c)
// of the result is the inverse S-box of byte (r, c-r mod 4).
func invSubShift(s *[16]byte) {
	*s = [16]byte{
		invSbox[s[0]], invSbox[s[13]], invSbox[s[10]], invSbox[s[7]],
		invSbox[s[4]], invSbox[s[1]], invSbox[s[14]], invSbox[s[11]],
		invSbox[s[8]], invSbox[s[5]], invSbox[s[2]], invSbox[s[15]],
		invSbox[s[12]], invSbox[s[9]], invSbox[s[6]], invSbox[s[3]],
	}
}

// mixColumns multiplies each column by 03x³+01x²+01x+02. With t the XOR
// of the column, row i becomes a_i ^ t ^ xtime(a_i ^ a_{i+1}).
func mixColumns(s *[16]byte) {
	for c := 0; c < 16; c += 4 {
		col := (*[4]byte)(s[c : c+4])
		a0, a1, a2, a3 := col[0], col[1], col[2], col[3]
		t := a0 ^ a1 ^ a2 ^ a3
		col[0] = a0 ^ t ^ xtime(a0^a1)
		col[1] = a1 ^ t ^ xtime(a1^a2)
		col[2] = a2 ^ t ^ xtime(a2^a3)
		col[3] = a3 ^ t ^ xtime(a3^a0)
	}
}

// invMixColumns multiplies each column by 0bx³+0dx²+09x+0e, which factors
// as (03x³+01x²+01x+02)(04x²+05): a cheap pre-multiply by 04x²+05
// followed by mixColumns.
func invMixColumns(s *[16]byte) {
	for c := 0; c < 16; c += 4 {
		col := (*[4]byte)(s[c : c+4])
		u := xtime(xtime(col[0] ^ col[2]))
		v := xtime(xtime(col[1] ^ col[3]))
		col[0] ^= u
		col[1] ^= v
		col[2] ^= u
		col[3] ^= v
	}
	mixColumns(s)
}

// Encrypt encrypts the 16-byte block src into dst. dst and src may be
// the same slice.
func (c *Cipher) Encrypt(dst, src []byte) {
	s := [16]byte(src)
	addRoundKey(&s, &c.rk[0])
	for r := 1; r < c.rounds; r++ {
		subShift(&s)
		mixColumns(&s)
		addRoundKey(&s, &c.rk[r])
	}
	subShift(&s)
	addRoundKey(&s, &c.rk[c.rounds])
	copy(dst[:BlockSize], s[:])
}

// Decrypt decrypts the 16-byte block src into dst. dst and src may be
// the same slice.
func (c *Cipher) Decrypt(dst, src []byte) {
	s := [16]byte(src)
	addRoundKey(&s, &c.rk[c.rounds])
	for r := c.rounds - 1; r > 0; r-- {
		invSubShift(&s)
		addRoundKey(&s, &c.rk[r])
		invMixColumns(&s)
	}
	invSubShift(&s)
	addRoundKey(&s, &c.rk[0])
	copy(dst[:BlockSize], s[:])
}
