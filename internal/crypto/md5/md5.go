// Package md5 implements the MD5 hash function from scratch (RFC 1321).
//
// MD5 is the second of the two message-authentication hashes the paper's
// protocols negotiate (SHA-1 or MD5, Section 3.1); the RC4+MD5 SSL suites
// are the low-cost end of the flexibility spectrum analyzed there.
package md5

import (
	"hash"

	"repro/internal/crypto/bitutil"
)

// Size is the MD5 digest size in bytes.
const Size = 16

// BlockSize is the MD5 block size in bytes.
const BlockSize = 64

// Digest is a streaming MD5 computation; create one with New.
type Digest struct {
	s   [4]uint32
	x   [BlockSize]byte
	nx  int
	len uint64
}

// New returns a new MD5 hash computation.
func New() *Digest {
	d := new(Digest)
	d.Reset()
	return d
}

// Reset returns the digest to its initial state.
func (d *Digest) Reset() {
	d.s = [4]uint32{0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476}
	d.nx = 0
	d.len = 0
}

// CopyFrom sets d to a copy of src's state, which must be a *Digest.
// HMAC uses it to restore its saved key-pad states without rehashing.
func (d *Digest) CopyFrom(src hash.Hash) { *d = *src.(*Digest) }

// Size returns the digest size (16).
func (d *Digest) Size() int { return Size }

// BlockSize returns the block size (64).
func (d *Digest) BlockSize() int { return BlockSize }

// Write absorbs p into the hash state. It never fails.
func (d *Digest) Write(p []byte) (n int, err error) {
	n = len(p)
	d.len += uint64(n)
	if d.nx > 0 {
		c := copy(d.x[d.nx:], p)
		d.nx += c
		if d.nx == BlockSize {
			d.block(d.x[:])
			d.nx = 0
		}
		p = p[c:]
	}
	for len(p) >= BlockSize {
		d.block(p[:BlockSize])
		p = p[BlockSize:]
	}
	if len(p) > 0 {
		d.nx = copy(d.x[:], p)
	}
	return n, nil
}

// Sum appends the current digest to in and returns the result; the
// receiver's state is unchanged.
func (d *Digest) Sum(in []byte) []byte {
	dd := *d
	digest := dd.checkSum()
	return append(in, digest[:]...)
}

func (d *Digest) checkSum() [Size]byte {
	msgLen := d.len
	var pad [BlockSize + 8]byte
	pad[0] = 0x80
	padLen := BlockSize - int(msgLen%BlockSize)
	if padLen < 9 {
		padLen += BlockSize
	}
	// 64-bit little-endian bit length.
	bits := msgLen << 3
	for i := 0; i < 8; i++ {
		pad[padLen-8+i] = byte(bits >> uint(8*i))
	}
	d.Write(pad[:padLen]) //nolint:errcheck // never fails

	var out [Size]byte
	for i, v := range d.s {
		bitutil.Store32LE(out[i*4:], v)
	}
	return out
}

// sine-derived constants, K[i] = floor(2^32 * abs(sin(i+1))).
var kTable = [64]uint32{
	0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee,
	0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
	0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be,
	0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
	0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa,
	0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
	0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed,
	0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a,
	0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c,
	0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
	0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05,
	0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
	0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039,
	0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
	0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1,
	0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
}

var shifts = [64]uint{
	7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
	5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20,
	4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
	6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
}

// block runs the compression function with the 64-round loop split into
// its four 16-round phases, hoisting the round-function switch and the
// modular message-index arithmetic out of the loop body. Rounds, constants
// and shifts are unchanged, so digests are bit-identical to the reference
// loop.
func (d *Digest) block(p []byte) {
	var m [16]uint32
	for i := 0; i < 16; i++ {
		m[i] = bitutil.Load32LE(p[i*4:])
	}
	a, b, c, dd := d.s[0], d.s[1], d.s[2], d.s[3]
	for i := 0; i < 16; i++ {
		f := (b & c) | (^b & dd)
		t := a + f + kTable[i] + m[i]
		a, dd, c, b = dd, c, b, b+(t<<shifts[i]|t>>(32-shifts[i]))
	}
	g := 1
	for i := 16; i < 32; i++ {
		f := (dd & b) | (^dd & c)
		t := a + f + kTable[i] + m[g]
		g = (g + 5) & 15
		a, dd, c, b = dd, c, b, b+(t<<shifts[i]|t>>(32-shifts[i]))
	}
	g = 5
	for i := 32; i < 48; i++ {
		f := b ^ c ^ dd
		t := a + f + kTable[i] + m[g]
		g = (g + 3) & 15
		a, dd, c, b = dd, c, b, b+(t<<shifts[i]|t>>(32-shifts[i]))
	}
	g = 0
	for i := 48; i < 64; i++ {
		f := c ^ (b | ^dd)
		t := a + f + kTable[i] + m[g]
		g = (g + 7) & 15
		a, dd, c, b = dd, c, b, b+(t<<shifts[i]|t>>(32-shifts[i]))
	}
	d.s[0] += a
	d.s[1] += b
	d.s[2] += c
	d.s[3] += dd
}

// Sum returns the MD5 digest of data in one call.
func Sum(data []byte) [Size]byte {
	d := New()
	d.Write(data) //nolint:errcheck // never fails
	return d.checkSum()
}
