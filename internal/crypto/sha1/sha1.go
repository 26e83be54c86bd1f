// Package sha1 implements the SHA-1 hash function from scratch (FIPS 180-1).
//
// SHA-1 is one of the two message-authentication hashes the paper's
// protocols negotiate (SHA-1 or MD5, Section 3.1), and the integrity half
// of the 3DES+SHA workload behind the processing-gap figure (Section 3.2).
package sha1

import (
	"encoding/binary"
	"hash"
	"math/bits"
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
			block(&d.h, d.x[:])
			d.nx = 0
		}
		p = p[c:]
	}
	if len(p) >= BlockSize {
		whole := len(p) &^ (BlockSize - 1)
		block(&d.h, p[:whole])
		p = p[whole:]
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
	binary.BigEndian.PutUint64(pad[padLen-8:], msgLen<<3)
	d.Write(pad[:padLen]) //nolint:errcheck // never fails

	var out [Size]byte
	for i, v := range d.h {
		binary.BigEndian.PutUint32(out[i*4:], v)
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

// block runs the compression function over every whole 64-byte block of
// p. The 80 rounds are written out: instead of shifting a..e through a
// tuple assignment each round, every round renames them, so a round is
// one addition chain and one rotation. The message schedule rolls through
// sixteen locals, w[t] = rotl1(w[t-3] ^ w[t-8] ^ w[t-14] ^ w[t-16]) being
// written over w[t-16]. Ch and Maj take the shorter forms
// d ^ (b & (c ^ d)) and (b & c) | (d & (b | c)); each equals the FIPS
// formula bit for bit.
func block(h *[5]uint32, p []byte) {
	h0, h1, h2, h3, h4 := h[0], h[1], h[2], h[3], h[4]
	for ; len(p) >= BlockSize; p = p[BlockSize:] {
		q := p[:BlockSize]
		w0 := binary.BigEndian.Uint32(q[0:])
		w1 := binary.BigEndian.Uint32(q[4:])
		w2 := binary.BigEndian.Uint32(q[8:])
		w3 := binary.BigEndian.Uint32(q[12:])
		w4 := binary.BigEndian.Uint32(q[16:])
		w5 := binary.BigEndian.Uint32(q[20:])
		w6 := binary.BigEndian.Uint32(q[24:])
		w7 := binary.BigEndian.Uint32(q[28:])
		w8 := binary.BigEndian.Uint32(q[32:])
		w9 := binary.BigEndian.Uint32(q[36:])
		w10 := binary.BigEndian.Uint32(q[40:])
		w11 := binary.BigEndian.Uint32(q[44:])
		w12 := binary.BigEndian.Uint32(q[48:])
		w13 := binary.BigEndian.Uint32(q[52:])
		w14 := binary.BigEndian.Uint32(q[56:])
		w15 := binary.BigEndian.Uint32(q[60:])
		a, b, c, d, e := h0, h1, h2, h3, h4

		// Rounds 0-19: Ch(b, c, d).
		e += bits.RotateLeft32(a, 5) + (d ^ (b & (c ^ d))) + k0 + w0
		b = bits.RotateLeft32(b, 30)
		d += bits.RotateLeft32(e, 5) + (c ^ (a & (b ^ c))) + k0 + w1
		a = bits.RotateLeft32(a, 30)
		c += bits.RotateLeft32(d, 5) + (b ^ (e & (a ^ b))) + k0 + w2
		e = bits.RotateLeft32(e, 30)
		b += bits.RotateLeft32(c, 5) + (a ^ (d & (e ^ a))) + k0 + w3
		d = bits.RotateLeft32(d, 30)
		a += bits.RotateLeft32(b, 5) + (e ^ (c & (d ^ e))) + k0 + w4
		c = bits.RotateLeft32(c, 30)
		e += bits.RotateLeft32(a, 5) + (d ^ (b & (c ^ d))) + k0 + w5
		b = bits.RotateLeft32(b, 30)
		d += bits.RotateLeft32(e, 5) + (c ^ (a & (b ^ c))) + k0 + w6
		a = bits.RotateLeft32(a, 30)
		c += bits.RotateLeft32(d, 5) + (b ^ (e & (a ^ b))) + k0 + w7
		e = bits.RotateLeft32(e, 30)
		b += bits.RotateLeft32(c, 5) + (a ^ (d & (e ^ a))) + k0 + w8
		d = bits.RotateLeft32(d, 30)
		a += bits.RotateLeft32(b, 5) + (e ^ (c & (d ^ e))) + k0 + w9
		c = bits.RotateLeft32(c, 30)
		e += bits.RotateLeft32(a, 5) + (d ^ (b & (c ^ d))) + k0 + w10
		b = bits.RotateLeft32(b, 30)
		d += bits.RotateLeft32(e, 5) + (c ^ (a & (b ^ c))) + k0 + w11
		a = bits.RotateLeft32(a, 30)
		c += bits.RotateLeft32(d, 5) + (b ^ (e & (a ^ b))) + k0 + w12
		e = bits.RotateLeft32(e, 30)
		b += bits.RotateLeft32(c, 5) + (a ^ (d & (e ^ a))) + k0 + w13
		d = bits.RotateLeft32(d, 30)
		a += bits.RotateLeft32(b, 5) + (e ^ (c & (d ^ e))) + k0 + w14
		c = bits.RotateLeft32(c, 30)
		e += bits.RotateLeft32(a, 5) + (d ^ (b & (c ^ d))) + k0 + w15
		b = bits.RotateLeft32(b, 30)
		w0 = bits.RotateLeft32(w13^w8^w2^w0, 1)
		d += bits.RotateLeft32(e, 5) + (c ^ (a & (b ^ c))) + k0 + w0
		a = bits.RotateLeft32(a, 30)
		w1 = bits.RotateLeft32(w14^w9^w3^w1, 1)
		c += bits.RotateLeft32(d, 5) + (b ^ (e & (a ^ b))) + k0 + w1
		e = bits.RotateLeft32(e, 30)
		w2 = bits.RotateLeft32(w15^w10^w4^w2, 1)
		b += bits.RotateLeft32(c, 5) + (a ^ (d & (e ^ a))) + k0 + w2
		d = bits.RotateLeft32(d, 30)
		w3 = bits.RotateLeft32(w0^w11^w5^w3, 1)
		a += bits.RotateLeft32(b, 5) + (e ^ (c & (d ^ e))) + k0 + w3
		c = bits.RotateLeft32(c, 30)
		// Rounds 20-39: Parity(b, c, d).
		w4 = bits.RotateLeft32(w1^w12^w6^w4, 1)
		e += bits.RotateLeft32(a, 5) + (b ^ c ^ d) + k1 + w4
		b = bits.RotateLeft32(b, 30)
		w5 = bits.RotateLeft32(w2^w13^w7^w5, 1)
		d += bits.RotateLeft32(e, 5) + (a ^ b ^ c) + k1 + w5
		a = bits.RotateLeft32(a, 30)
		w6 = bits.RotateLeft32(w3^w14^w8^w6, 1)
		c += bits.RotateLeft32(d, 5) + (e ^ a ^ b) + k1 + w6
		e = bits.RotateLeft32(e, 30)
		w7 = bits.RotateLeft32(w4^w15^w9^w7, 1)
		b += bits.RotateLeft32(c, 5) + (d ^ e ^ a) + k1 + w7
		d = bits.RotateLeft32(d, 30)
		w8 = bits.RotateLeft32(w5^w0^w10^w8, 1)
		a += bits.RotateLeft32(b, 5) + (c ^ d ^ e) + k1 + w8
		c = bits.RotateLeft32(c, 30)
		w9 = bits.RotateLeft32(w6^w1^w11^w9, 1)
		e += bits.RotateLeft32(a, 5) + (b ^ c ^ d) + k1 + w9
		b = bits.RotateLeft32(b, 30)
		w10 = bits.RotateLeft32(w7^w2^w12^w10, 1)
		d += bits.RotateLeft32(e, 5) + (a ^ b ^ c) + k1 + w10
		a = bits.RotateLeft32(a, 30)
		w11 = bits.RotateLeft32(w8^w3^w13^w11, 1)
		c += bits.RotateLeft32(d, 5) + (e ^ a ^ b) + k1 + w11
		e = bits.RotateLeft32(e, 30)
		w12 = bits.RotateLeft32(w9^w4^w14^w12, 1)
		b += bits.RotateLeft32(c, 5) + (d ^ e ^ a) + k1 + w12
		d = bits.RotateLeft32(d, 30)
		w13 = bits.RotateLeft32(w10^w5^w15^w13, 1)
		a += bits.RotateLeft32(b, 5) + (c ^ d ^ e) + k1 + w13
		c = bits.RotateLeft32(c, 30)
		w14 = bits.RotateLeft32(w11^w6^w0^w14, 1)
		e += bits.RotateLeft32(a, 5) + (b ^ c ^ d) + k1 + w14
		b = bits.RotateLeft32(b, 30)
		w15 = bits.RotateLeft32(w12^w7^w1^w15, 1)
		d += bits.RotateLeft32(e, 5) + (a ^ b ^ c) + k1 + w15
		a = bits.RotateLeft32(a, 30)
		w0 = bits.RotateLeft32(w13^w8^w2^w0, 1)
		c += bits.RotateLeft32(d, 5) + (e ^ a ^ b) + k1 + w0
		e = bits.RotateLeft32(e, 30)
		w1 = bits.RotateLeft32(w14^w9^w3^w1, 1)
		b += bits.RotateLeft32(c, 5) + (d ^ e ^ a) + k1 + w1
		d = bits.RotateLeft32(d, 30)
		w2 = bits.RotateLeft32(w15^w10^w4^w2, 1)
		a += bits.RotateLeft32(b, 5) + (c ^ d ^ e) + k1 + w2
		c = bits.RotateLeft32(c, 30)
		w3 = bits.RotateLeft32(w0^w11^w5^w3, 1)
		e += bits.RotateLeft32(a, 5) + (b ^ c ^ d) + k1 + w3
		b = bits.RotateLeft32(b, 30)
		w4 = bits.RotateLeft32(w1^w12^w6^w4, 1)
		d += bits.RotateLeft32(e, 5) + (a ^ b ^ c) + k1 + w4
		a = bits.RotateLeft32(a, 30)
		w5 = bits.RotateLeft32(w2^w13^w7^w5, 1)
		c += bits.RotateLeft32(d, 5) + (e ^ a ^ b) + k1 + w5
		e = bits.RotateLeft32(e, 30)
		w6 = bits.RotateLeft32(w3^w14^w8^w6, 1)
		b += bits.RotateLeft32(c, 5) + (d ^ e ^ a) + k1 + w6
		d = bits.RotateLeft32(d, 30)
		w7 = bits.RotateLeft32(w4^w15^w9^w7, 1)
		a += bits.RotateLeft32(b, 5) + (c ^ d ^ e) + k1 + w7
		c = bits.RotateLeft32(c, 30)
		// Rounds 40-59: Maj(b, c, d).
		w8 = bits.RotateLeft32(w5^w0^w10^w8, 1)
		e += bits.RotateLeft32(a, 5) + ((b & c) | (d & (b | c))) + k2 + w8
		b = bits.RotateLeft32(b, 30)
		w9 = bits.RotateLeft32(w6^w1^w11^w9, 1)
		d += bits.RotateLeft32(e, 5) + ((a & b) | (c & (a | b))) + k2 + w9
		a = bits.RotateLeft32(a, 30)
		w10 = bits.RotateLeft32(w7^w2^w12^w10, 1)
		c += bits.RotateLeft32(d, 5) + ((e & a) | (b & (e | a))) + k2 + w10
		e = bits.RotateLeft32(e, 30)
		w11 = bits.RotateLeft32(w8^w3^w13^w11, 1)
		b += bits.RotateLeft32(c, 5) + ((d & e) | (a & (d | e))) + k2 + w11
		d = bits.RotateLeft32(d, 30)
		w12 = bits.RotateLeft32(w9^w4^w14^w12, 1)
		a += bits.RotateLeft32(b, 5) + ((c & d) | (e & (c | d))) + k2 + w12
		c = bits.RotateLeft32(c, 30)
		w13 = bits.RotateLeft32(w10^w5^w15^w13, 1)
		e += bits.RotateLeft32(a, 5) + ((b & c) | (d & (b | c))) + k2 + w13
		b = bits.RotateLeft32(b, 30)
		w14 = bits.RotateLeft32(w11^w6^w0^w14, 1)
		d += bits.RotateLeft32(e, 5) + ((a & b) | (c & (a | b))) + k2 + w14
		a = bits.RotateLeft32(a, 30)
		w15 = bits.RotateLeft32(w12^w7^w1^w15, 1)
		c += bits.RotateLeft32(d, 5) + ((e & a) | (b & (e | a))) + k2 + w15
		e = bits.RotateLeft32(e, 30)
		w0 = bits.RotateLeft32(w13^w8^w2^w0, 1)
		b += bits.RotateLeft32(c, 5) + ((d & e) | (a & (d | e))) + k2 + w0
		d = bits.RotateLeft32(d, 30)
		w1 = bits.RotateLeft32(w14^w9^w3^w1, 1)
		a += bits.RotateLeft32(b, 5) + ((c & d) | (e & (c | d))) + k2 + w1
		c = bits.RotateLeft32(c, 30)
		w2 = bits.RotateLeft32(w15^w10^w4^w2, 1)
		e += bits.RotateLeft32(a, 5) + ((b & c) | (d & (b | c))) + k2 + w2
		b = bits.RotateLeft32(b, 30)
		w3 = bits.RotateLeft32(w0^w11^w5^w3, 1)
		d += bits.RotateLeft32(e, 5) + ((a & b) | (c & (a | b))) + k2 + w3
		a = bits.RotateLeft32(a, 30)
		w4 = bits.RotateLeft32(w1^w12^w6^w4, 1)
		c += bits.RotateLeft32(d, 5) + ((e & a) | (b & (e | a))) + k2 + w4
		e = bits.RotateLeft32(e, 30)
		w5 = bits.RotateLeft32(w2^w13^w7^w5, 1)
		b += bits.RotateLeft32(c, 5) + ((d & e) | (a & (d | e))) + k2 + w5
		d = bits.RotateLeft32(d, 30)
		w6 = bits.RotateLeft32(w3^w14^w8^w6, 1)
		a += bits.RotateLeft32(b, 5) + ((c & d) | (e & (c | d))) + k2 + w6
		c = bits.RotateLeft32(c, 30)
		w7 = bits.RotateLeft32(w4^w15^w9^w7, 1)
		e += bits.RotateLeft32(a, 5) + ((b & c) | (d & (b | c))) + k2 + w7
		b = bits.RotateLeft32(b, 30)
		w8 = bits.RotateLeft32(w5^w0^w10^w8, 1)
		d += bits.RotateLeft32(e, 5) + ((a & b) | (c & (a | b))) + k2 + w8
		a = bits.RotateLeft32(a, 30)
		w9 = bits.RotateLeft32(w6^w1^w11^w9, 1)
		c += bits.RotateLeft32(d, 5) + ((e & a) | (b & (e | a))) + k2 + w9
		e = bits.RotateLeft32(e, 30)
		w10 = bits.RotateLeft32(w7^w2^w12^w10, 1)
		b += bits.RotateLeft32(c, 5) + ((d & e) | (a & (d | e))) + k2 + w10
		d = bits.RotateLeft32(d, 30)
		w11 = bits.RotateLeft32(w8^w3^w13^w11, 1)
		a += bits.RotateLeft32(b, 5) + ((c & d) | (e & (c | d))) + k2 + w11
		c = bits.RotateLeft32(c, 30)
		// Rounds 60-79: Parity(b, c, d).
		w12 = bits.RotateLeft32(w9^w4^w14^w12, 1)
		e += bits.RotateLeft32(a, 5) + (b ^ c ^ d) + k3 + w12
		b = bits.RotateLeft32(b, 30)
		w13 = bits.RotateLeft32(w10^w5^w15^w13, 1)
		d += bits.RotateLeft32(e, 5) + (a ^ b ^ c) + k3 + w13
		a = bits.RotateLeft32(a, 30)
		w14 = bits.RotateLeft32(w11^w6^w0^w14, 1)
		c += bits.RotateLeft32(d, 5) + (e ^ a ^ b) + k3 + w14
		e = bits.RotateLeft32(e, 30)
		w15 = bits.RotateLeft32(w12^w7^w1^w15, 1)
		b += bits.RotateLeft32(c, 5) + (d ^ e ^ a) + k3 + w15
		d = bits.RotateLeft32(d, 30)
		w0 = bits.RotateLeft32(w13^w8^w2^w0, 1)
		a += bits.RotateLeft32(b, 5) + (c ^ d ^ e) + k3 + w0
		c = bits.RotateLeft32(c, 30)
		w1 = bits.RotateLeft32(w14^w9^w3^w1, 1)
		e += bits.RotateLeft32(a, 5) + (b ^ c ^ d) + k3 + w1
		b = bits.RotateLeft32(b, 30)
		w2 = bits.RotateLeft32(w15^w10^w4^w2, 1)
		d += bits.RotateLeft32(e, 5) + (a ^ b ^ c) + k3 + w2
		a = bits.RotateLeft32(a, 30)
		w3 = bits.RotateLeft32(w0^w11^w5^w3, 1)
		c += bits.RotateLeft32(d, 5) + (e ^ a ^ b) + k3 + w3
		e = bits.RotateLeft32(e, 30)
		w4 = bits.RotateLeft32(w1^w12^w6^w4, 1)
		b += bits.RotateLeft32(c, 5) + (d ^ e ^ a) + k3 + w4
		d = bits.RotateLeft32(d, 30)
		w5 = bits.RotateLeft32(w2^w13^w7^w5, 1)
		a += bits.RotateLeft32(b, 5) + (c ^ d ^ e) + k3 + w5
		c = bits.RotateLeft32(c, 30)
		w6 = bits.RotateLeft32(w3^w14^w8^w6, 1)
		e += bits.RotateLeft32(a, 5) + (b ^ c ^ d) + k3 + w6
		b = bits.RotateLeft32(b, 30)
		w7 = bits.RotateLeft32(w4^w15^w9^w7, 1)
		d += bits.RotateLeft32(e, 5) + (a ^ b ^ c) + k3 + w7
		a = bits.RotateLeft32(a, 30)
		w8 = bits.RotateLeft32(w5^w0^w10^w8, 1)
		c += bits.RotateLeft32(d, 5) + (e ^ a ^ b) + k3 + w8
		e = bits.RotateLeft32(e, 30)
		w9 = bits.RotateLeft32(w6^w1^w11^w9, 1)
		b += bits.RotateLeft32(c, 5) + (d ^ e ^ a) + k3 + w9
		d = bits.RotateLeft32(d, 30)
		w10 = bits.RotateLeft32(w7^w2^w12^w10, 1)
		a += bits.RotateLeft32(b, 5) + (c ^ d ^ e) + k3 + w10
		c = bits.RotateLeft32(c, 30)
		w11 = bits.RotateLeft32(w8^w3^w13^w11, 1)
		e += bits.RotateLeft32(a, 5) + (b ^ c ^ d) + k3 + w11
		b = bits.RotateLeft32(b, 30)
		w12 = bits.RotateLeft32(w9^w4^w14^w12, 1)
		d += bits.RotateLeft32(e, 5) + (a ^ b ^ c) + k3 + w12
		a = bits.RotateLeft32(a, 30)
		w13 = bits.RotateLeft32(w10^w5^w15^w13, 1)
		c += bits.RotateLeft32(d, 5) + (e ^ a ^ b) + k3 + w13
		e = bits.RotateLeft32(e, 30)
		w14 = bits.RotateLeft32(w11^w6^w0^w14, 1)
		b += bits.RotateLeft32(c, 5) + (d ^ e ^ a) + k3 + w14
		d = bits.RotateLeft32(d, 30)
		w15 = bits.RotateLeft32(w12^w7^w1^w15, 1)
		a += bits.RotateLeft32(b, 5) + (c ^ d ^ e) + k3 + w15
		c = bits.RotateLeft32(c, 30)

		h0 += a
		h1 += b
		h2 += c
		h3 += d
		h4 += e
	}
	h[0], h[1], h[2], h[3], h[4] = h0, h1, h2, h3, h4
}

// Sum returns the SHA-1 digest of data in one call.
func Sum(data []byte) [Size]byte {
	d := New()
	d.Write(data) //nolint:errcheck // never fails
	return d.checkSum()
}
