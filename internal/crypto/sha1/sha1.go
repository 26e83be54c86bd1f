// Package sha1 implements the SHA-1 hash function from scratch (FIPS 180-1).
//
// SHA-1 is one of the two message-authentication hashes the paper's
// protocols negotiate (SHA-1 or MD5, Section 3.1), and the integrity half
// of the 3DES+SHA workload behind the processing-gap figure (Section 3.2).
package sha1

import (
	"hash"

	"repro/internal/crypto/bitutil"
)

// Size is the SHA-1 digest size in bytes.
const Size = 20

// BlockSize is the SHA-1 block size in bytes.
const BlockSize = 64

// Digest is a streaming SHA-1 computation. The zero value is not ready for
// use; call New.
type Digest struct {
	h   [5]uint32
	x   [BlockSize]byte
	nx  int
	len uint64
}

// New returns a new SHA-1 hash computation.
func New() *Digest {
	d := new(Digest)
	d.Reset()
	return d
}

// Reset returns the digest to its initial state.
func (d *Digest) Reset() {
	d.h = [5]uint32{0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0}
	d.nx = 0
	d.len = 0
}

// CopyFrom sets d to a copy of src's state, which must be a *Digest.
// HMAC uses it to restore its saved key-pad states without rehashing.
func (d *Digest) CopyFrom(src hash.Hash) { *d = *src.(*Digest) }

// Size returns the digest size (20).
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
	dd := *d // copy so the caller can keep writing
	digest := dd.checkSum()
	return append(in, digest[:]...)
}

func (d *Digest) checkSum() [Size]byte {
	msgLen := d.len
	// Padding: 0x80, zeros, then the 64-bit big-endian bit length.
	var pad [BlockSize + 8]byte
	pad[0] = 0x80
	padLen := BlockSize - int(msgLen%BlockSize)
	if padLen < 9 {
		padLen += BlockSize
	}
	for i := 0; i < 8; i++ {
		pad[padLen-8+i] = byte(msgLen << 3 >> uint(56-8*i))
	}
	d.Write(pad[:padLen]) //nolint:errcheck // never fails

	var out [Size]byte
	for i, v := range d.h {
		bitutil.Store32(out[i*4:], v)
	}
	return out
}

// Round constants (FIPS 180-1 section 5).
const (
	k0 = 0x5A827999
	k1 = 0x6ED9EBA1
	k2 = 0x8F1BBCDC
	k3 = 0xCA62C1D6
)

// block runs the compression function with the 80-round loop split into
// its four 20-round phases, hoisting the per-round round-function switch
// out of the loop body. The schedule and additions are unchanged, so the
// digests are bit-identical to the reference loop.
func (d *Digest) block(p []byte) {
	var w [80]uint32
	for i := 0; i < 16; i++ {
		w[i] = bitutil.Load32(p[i*4:])
	}
	for i := 16; i < 80; i++ {
		t := w[i-3] ^ w[i-8] ^ w[i-14] ^ w[i-16]
		w[i] = t<<1 | t>>31
	}
	a, b, c, dd, e := d.h[0], d.h[1], d.h[2], d.h[3], d.h[4]
	for i := 0; i < 20; i++ {
		f := (b & c) | (^b & dd)
		t := (a<<5 | a>>27) + f + e + k0 + w[i]
		e, dd, c, b, a = dd, c, (b<<30 | b>>2), a, t
	}
	for i := 20; i < 40; i++ {
		f := b ^ c ^ dd
		t := (a<<5 | a>>27) + f + e + k1 + w[i]
		e, dd, c, b, a = dd, c, (b<<30 | b>>2), a, t
	}
	for i := 40; i < 60; i++ {
		f := (b & c) | (b & dd) | (c & dd)
		t := (a<<5 | a>>27) + f + e + k2 + w[i]
		e, dd, c, b, a = dd, c, (b<<30 | b>>2), a, t
	}
	for i := 60; i < 80; i++ {
		f := b ^ c ^ dd
		t := (a<<5 | a>>27) + f + e + k3 + w[i]
		e, dd, c, b, a = dd, c, (b<<30 | b>>2), a, t
	}
	d.h[0] += a
	d.h[1] += b
	d.h[2] += c
	d.h[3] += dd
	d.h[4] += e
}

// Sum returns the SHA-1 digest of data in one call.
func Sum(data []byte) [Size]byte {
	d := New()
	d.Write(data) //nolint:errcheck // never fails
	return d.checkSum()
}
