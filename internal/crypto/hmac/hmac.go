// Package hmac implements HMAC (RFC 2104) from scratch over the hashes in
// this repository.
//
// HMAC-SHA-1 and HMAC-MD5 are the message-authentication algorithms the
// paper's protocols negotiate alongside their bulk ciphers (Section 3.1).
//
// Keying hashes the two padded key blocks, K⊕ipad and K⊕opad, once and
// saves the resulting digest states. Reset restores the inner state and
// Sum restores the outer one, each by value copy, so a MAC over a short
// message costs two compressions instead of four and allocates nothing.
// SetKey re-keys in place. The output is the RFC 2104 construction,
// unchanged.
package hmac

import (
	"fmt"
	"hash"
)

// Hash is a hash.Hash whose state can be overwritten with a copy of
// another instance from the same constructor. The repository's sha1 and
// md5 digests implement it.
type Hash interface {
	hash.Hash
	CopyFrom(src hash.Hash)
}

// HMAC is a keyed HMAC instance. It satisfies hash.Hash.
type HMAC struct {
	inner, outer   Hash   // working digests
	istate, ostate Hash   // digests that have absorbed K⊕ipad and K⊕opad
	pad            []byte // one block; scratch for the padded key
}

// New returns an HMAC instance keyed with key over the hash produced by h.
// h must return a Hash; New panics otherwise.
func New(h func() hash.Hash, key []byte) *HMAC {
	hm := &HMAC{inner: digest(h), outer: digest(h), istate: digest(h), ostate: digest(h)}
	hm.pad = make([]byte, hm.inner.BlockSize())
	hm.SetKey(key)
	return hm
}

func digest(h func() hash.Hash) Hash {
	d := h()
	s, ok := d.(Hash)
	if !ok {
		panic(fmt.Sprintf("hmac: %T cannot copy its state", d))
	}
	return s
}

// SetKey re-keys h in place and resets it. It allocates nothing.
func (h *HMAC) SetKey(key []byte) {
	if len(key) > len(h.pad) {
		h.outer.Reset()
		h.outer.Write(key)
		key = h.outer.Sum(h.pad[:0])
	}
	clear(h.pad[copy(h.pad, key):])
	for i := range h.pad {
		h.pad[i] ^= 0x36
	}
	h.istate.Reset()
	h.istate.Write(h.pad)
	for i := range h.pad {
		h.pad[i] ^= 0x36 ^ 0x5c
	}
	h.ostate.Reset()
	h.ostate.Write(h.pad)
	h.Reset()
}

func (h *HMAC) Write(p []byte) (int, error) { return h.inner.Write(p) }

func (h *HMAC) Size() int { return h.inner.Size() }

func (h *HMAC) BlockSize() int { return h.inner.BlockSize() }

// Reset discards the message written so far; the key is kept.
func (h *HMAC) Reset() { h.inner.CopyFrom(h.istate) }

// Sum appends the MAC of the message written so far to in. Like
// hash.Hash, it leaves the message state unchanged.
func (h *HMAC) Sum(in []byte) []byte {
	mark := len(in)
	in = h.inner.Sum(in)
	h.outer.CopyFrom(h.ostate)
	h.outer.Write(in[mark:])
	return h.outer.Sum(in[:mark])
}

// Equal compares two MACs in constant time, preventing the byte-at-a-time
// timing oracle the paper's tamper-resistance section warns about.
func Equal(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	var v byte
	for i := range a {
		v |= a[i] ^ b[i]
	}
	return v == 0
}
