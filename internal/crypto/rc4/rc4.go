// Package rc4 implements the RC4 stream cipher from scratch.
//
// RC4 is both a negotiable SSL/WTLS bulk cipher (Section 3.1) and the
// cipher underlying 802.11 WEP, whose key-schedule weakness enables the
// FMS attack reproduced in internal/attack/wepattack (Section 2, refs
// [21-23]).
package rc4

import "fmt"

// KeySizeError reports an invalid key length.
type KeySizeError int

func (k KeySizeError) Error() string {
	return fmt.Sprintf("rc4: invalid key size %d", int(k))
}

// Cipher is an RC4 stream cipher instance. The permutation is held one
// entry per 32-bit word, as Go's crypto/rc4 holds it: on x86-64 its PRGA
// runs about 1.5x faster than over a byte permutation (EXPERIMENTS,
// "Performance — SHA-1 and RC4 kernels"), for 768 bytes more state per
// cipher. Every entry stays below 256.
type Cipher struct {
	s    [256]uint32
	i, j uint8
}

// NewCipher creates an RC4 cipher from a 1- to 256-byte key, running the
// full key-scheduling algorithm (KSA).
func NewCipher(key []byte) (*Cipher, error) {
	c := new(Cipher)
	if err := c.SetKey(key); err != nil {
		return nil, err
	}
	return c, nil
}

// SetKey rekeys c from a 1- to 256-byte key, running the full KSA and
// restarting the keystream, as NewCipher does. Neither c nor key
// escapes, so a per-frame cipher can live on the caller's stack.
func (c *Cipher) SetKey(key []byte) error {
	k := len(key)
	if k < 1 || k > 256 {
		return KeySizeError(k)
	}
	for i := range c.s {
		c.s[i] = uint32(i)
	}
	var j uint8
	for i := 0; i < 256; i++ {
		j += uint8(c.s[i]) + key[i%k]
		c.s[i], c.s[j] = c.s[j], c.s[i]
	}
	c.i, c.j = 0, 0
	return nil
}

// XORKeyStream XORs src with the cipher's keystream into dst. dst and src
// may overlap entirely or not at all; it panics if dst is shorter than
// src. Each step loads s[i] and s[j] once and reuses them for the swap and
// the output index; dst is resliced to len(src) so the loop runs without
// bounds checks (uint8 indices cannot leave the table).
func (c *Cipher) XORKeyStream(dst, src []byte) {
	if len(dst) < len(src) {
		panic("rc4: dst is shorter than src")
	}
	dst = dst[:len(src)]
	i, j := c.i, c.j
	s := &c.s
	for k, v := range src {
		i++
		x := s[i]
		j += uint8(x)
		y := s[j]
		s[i], s[j] = y, x
		dst[k] = v ^ uint8(s[uint8(x+y)])
	}
	c.i, c.j = i, j
}

// Keystream writes len(out) keystream bytes into out (the encryption of
// zeros) without the zero-fill-then-XOR double pass. It is a convenience
// for the WEP attacks, which reason about raw keystream.
func (c *Cipher) Keystream(out []byte) {
	i, j := c.i, c.j
	s := &c.s
	for k := range out {
		i++
		x := s[i]
		j += uint8(x)
		y := s[j]
		s[i], s[j] = y, x
		out[k] = uint8(s[uint8(x+y)])
	}
	c.i, c.j = i, j
}

// State returns a copy of the current permutation state and the i/j
// indices. The FMS attack in internal/attack/wepattack simulates partial
// KSA runs; exposing the state keeps that simulation honest (it uses only
// information an attacker can compute from the public IV).
func (c *Cipher) State() (s [256]byte, i, j uint8) {
	for k, v := range c.s {
		s[k] = uint8(v)
	}
	return s, c.i, c.j
}
