// Package wtls implements a WTLS/SSL-style transport security protocol
// from scratch: hello negotiation over the cipher-suite registry, RSA and
// ephemeral-DH key exchange, PRF-based key derivation, a record layer with
// per-record MACs, alerts, and session resumption.
//
// It is the "transport-layer security protocol ... with a secure transport
// service interface and secure connection management functions" of the
// paper's WAP architecture discussion (Section 2), sized for the
// mobile-appliance protocols of 2002/2003 (hence SHA-1/MD5, RC4, 3DES and
// export suites). The wire format is this repository's own — compact and
// explicit rather than bug-compatible with any RFC — but the message flow,
// state machine and key schedule follow SSL 3.0/WTLS structurally.
package wtls

import (
	"hash"

	"repro/internal/crypto/hmac"
	"repro/internal/crypto/sha1"
)

// newPRFMAC returns an HMAC-SHA-1 for prf to re-key. A Conn keeps one
// for all of its handshake's derivations.
func newPRFMAC() *hmac.HMAC {
	return hmac.New(func() hash.Hash { return sha1.New() }, nil)
}

// prf is the key-derivation function: the TLS P_hash construction
// instantiated with HMAC-SHA-1 only (WTLS similarly used a single-hash
// PRF, unlike TLS 1.0's MD5⊕SHA1 split — a documented simplification).
//
//	A(0) = seed, A(i) = HMAC(secret, A(i-1))
//	out  = HMAC(secret, A(1)||seed) || HMAC(secret, A(2)||seed) || ...
//
// h is re-keyed with secret, which allocates nothing, and serves the
// whole expansion; Reset restores its saved key-pad state for each A(i)
// and output block. The output and one scratch buffer are the only
// allocations.
func prf(h *hmac.HMAC, secret []byte, label string, seed []byte, n int) []byte {
	h.SetKey(secret)
	// buf holds A(i) in its first sha1.Size bytes and label||seed after.
	buf := make([]byte, sha1.Size, sha1.Size+len(label)+len(seed))
	ls := append(append(buf[sha1.Size:], label...), seed...)
	out := make([]byte, 0, n+sha1.Size)
	a := ls
	for len(out) < n {
		h.Reset()
		h.Write(a)
		a = h.Sum(buf[:0:sha1.Size])

		h.Reset()
		h.Write(a)
		h.Write(ls)
		out = h.Sum(out)
	}
	return out[:n]
}

// masterSecretLen is the SSL master secret length.
const masterSecretLen = 48

// deriveMaster computes the master secret from the premaster and both
// hello randoms.
func deriveMaster(h *hmac.HMAC, premaster, clientRandom, serverRandom []byte) []byte {
	seed := append(append([]byte{}, clientRandom...), serverRandom...)
	return prf(h, premaster, "master secret", seed, masterSecretLen)
}

// keyMaterial is the per-direction key block carved from the PRF output.
type keyMaterial struct {
	clientMAC, serverMAC []byte
	clientKey, serverKey []byte
	clientIV, serverIV   []byte
}

// deriveKeys expands the master secret into the connection key block.
func deriveKeys(h *hmac.HMAC, master, clientRandom, serverRandom []byte, macLen, keyLen, ivLen int) keyMaterial {
	seed := append(append([]byte{}, serverRandom...), clientRandom...)
	total := 2*macLen + 2*keyLen + 2*ivLen
	block := prf(h, master, "key expansion", seed, total)
	var km keyMaterial
	km.clientMAC, block = block[:macLen], block[macLen:]
	km.serverMAC, block = block[:macLen], block[macLen:]
	km.clientKey, block = block[:keyLen], block[keyLen:]
	km.serverKey, block = block[:keyLen], block[keyLen:]
	km.clientIV, block = block[:ivLen], block[ivLen:]
	km.serverIV = block[:ivLen]
	return km
}

// finishedLen is the Finished verify-data length.
const finishedLen = 12

// finishedData computes the Finished verify data over the handshake
// transcript hash.
func finishedData(h *hmac.HMAC, master []byte, isClient bool, transcriptHash []byte) []byte {
	label := "server finished"
	if isClient {
		label = "client finished"
	}
	return prf(h, master, label, transcriptHash, finishedLen)
}
