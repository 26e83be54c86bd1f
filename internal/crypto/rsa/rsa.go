// Package rsa implements RSA key generation, PKCS#1 v1.5 encryption and
// signing from scratch over the Montgomery engine in internal/crypto/mp.
//
// RSA is the paper's reference public-key workload: the SSL/WTLS handshake
// cost that creates the processing gap (Section 3.2), the +42 mJ/KB secure
// mode of the battery study (Section 3.3), and the target of both the CRT
// fault attack and the timing attack (Section 3.4). The private-key path
// therefore supports the corresponding knobs: CRT on/off, blinding,
// verify-after-sign fault detection, and fault injection.
package rsa

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync/atomic"

	"repro/internal/crypto/mp"
)

// PublicKey is an RSA public key. Its Montgomery context is built on
// first use and kept, so a key is safe for concurrent use but must not be
// copied after it.
type PublicKey struct {
	N *big.Int // modulus
	E int64    // public exponent

	nCtx atomic.Pointer[mp.MontCtx]
}

// Size returns the modulus size in bytes.
func (pub *PublicKey) Size() int { return (pub.N.BitLen() + 7) / 8 }

// PrivateKey is an RSA private key with precomputed CRT parameters.
// GenerateKey also builds the Montgomery contexts of N, P and Q; a key
// built any other way gets them on first use.
type PrivateKey struct {
	PublicKey
	D    *big.Int // private exponent
	P, Q *big.Int // prime factors
	Dp   *big.Int // d mod (p-1)
	Dq   *big.Int // d mod (q-1)
	Qinv *big.Int // q^{-1} mod p

	pCtx, qCtx atomic.Pointer[mp.MontCtx]
}

// montCtx returns the Montgomery context kept in slot for modulus m. It
// builds and keeps a new one when the slot is empty or holds another
// modulus's context, as after a caller replaced the key's field.
// Concurrent first uses may each build one; every one is correct.
func montCtx(slot *atomic.Pointer[mp.MontCtx], m *big.Int) (*mp.MontCtx, error) {
	if c := slot.Load(); c != nil && c.N.Cmp(m) == 0 {
		return c, nil
	}
	c, err := mp.NewMontCtx(m)
	if err != nil {
		return nil, err
	}
	slot.Store(c)
	return c, nil
}

func (pub *PublicKey) montN() (*mp.MontCtx, error)   { return montCtx(&pub.nCtx, pub.N) }
func (priv *PrivateKey) montP() (*mp.MontCtx, error) { return montCtx(&priv.pCtx, priv.P) }
func (priv *PrivateKey) montQ() (*mp.MontCtx, error) { return montCtx(&priv.qCtx, priv.Q) }

// Errors returned by this package.
var (
	ErrMessageTooLong = errors.New("rsa: message too long for modulus")
	ErrDecryption     = errors.New("rsa: decryption error")
	ErrVerification   = errors.New("rsa: verification error")
	ErrFaultDetected  = errors.New("rsa: fault detected by verify-after-sign")
)

// GenerateKey generates an RSA key pair of the given modulus bit length
// from the supplied randomness source (typically a seeded DRBG, keeping
// experiments reproducible).
func GenerateKey(rng io.Reader, bits int) (*PrivateKey, error) {
	if bits < 128 {
		return nil, fmt.Errorf("rsa: modulus too small (%d bits)", bits)
	}
	e := big.NewInt(65537)
	for {
		p, err := genPrime(rng, bits/2)
		if err != nil {
			return nil, err
		}
		q, err := genPrime(rng, bits-bits/2)
		if err != nil {
			return nil, err
		}
		if p.Cmp(q) == 0 {
			continue
		}
		if p.Cmp(q) < 0 {
			p, q = q, p
		}
		n := new(big.Int).Mul(p, q)
		if n.BitLen() != bits {
			continue
		}
		pm1 := new(big.Int).Sub(p, big.NewInt(1))
		qm1 := new(big.Int).Sub(q, big.NewInt(1))
		phi := new(big.Int).Mul(pm1, qm1)
		d := new(big.Int).ModInverse(e, phi)
		if d == nil {
			continue // e not invertible: pick new primes
		}
		priv := &PrivateKey{
			PublicKey: PublicKey{N: n, E: e.Int64()},
			D:         d,
			P:         p,
			Q:         q,
			Dp:        new(big.Int).Mod(d, pm1),
			Dq:        new(big.Int).Mod(d, qm1),
			Qinv:      new(big.Int).ModInverse(q, p),
		}
		// N, P and Q are odd and above 1, so none of these can fail.
		priv.montN()
		priv.montP()
		priv.montQ()
		return priv, nil
	}
}

func genPrime(rng io.Reader, bits int) (*big.Int, error) {
	bytes := (bits + 7) / 8
	buf := make([]byte, bytes)
	for {
		if _, err := io.ReadFull(rng, buf); err != nil {
			return nil, err
		}
		// Trim to the requested width, then force the top two bits (so
		// p*q has full length) and oddness.
		buf[0] &= 0xff >> uint(8*bytes-bits)
		p := new(big.Int).SetBytes(buf)
		p.SetBit(p, bits-1, 1)
		p.SetBit(p, bits-2, 1)
		p.SetBit(p, 0, 1)
		// The screen rejects most composites by trial division and the
		// rest with one modexp, more cheaply than ProbablyPrime, and it
		// passes every prime, so ProbablyPrime still decides and the
		// DRBG stream yields the same key.
		if mp.ScreenPrime(p) && p.ProbablyPrime(20) {
			return p, nil
		}
	}
}

// Options controls the private-key operation, exposing the
// tamper-resistance design space of Section 3.4.
type Options struct {
	// NoCRT disables the Chinese-Remainder-Theorem speedup (≈4x slower,
	// but immune to the Boneh-DeMillo-Lipton fault attack).
	NoCRT bool
	// ConstantTime selects the Montgomery-ladder exponentiation.
	ConstantTime bool
	// Blinding randomizes the operand with r^e before exponentiation,
	// defeating timing attacks; requires Rand.
	Blinding bool
	// Rand supplies randomness for blinding.
	Rand io.Reader
	// VerifyAfterSign re-verifies the result with the public key before
	// releasing it, detecting injected faults.
	VerifyAfterSign bool
	// Fault, if non-nil, corrupts the computation as a fault-induction
	// attacker would (Section 3.4's glitch/voltage/radiation attacks).
	Fault *Fault
	// Meter accumulates simulated cycles for the cost model.
	Meter *mp.CycleMeter
}

// Fault describes an injected computational fault.
type Fault struct {
	// FlipBit is the bit index to flip in the mod-p half of a CRT
	// computation (or in the full result when CRT is disabled).
	FlipBit int
}

// privateExp computes c^d mod n honoring the options.
func (priv *PrivateKey) privateExp(c *big.Int, opts *Options) (*big.Int, error) {
	if opts == nil {
		opts = &Options{}
	}
	input := c
	var blindInv *big.Int
	if opts.Blinding {
		if opts.Rand == nil {
			return nil, errors.New("rsa: blinding requested without a randomness source")
		}
		r, rInv, err := priv.blindingPair(opts.Rand)
		if err != nil {
			return nil, err
		}
		nctx, err := priv.montN()
		if err != nil {
			return nil, err
		}
		re := nctx.ModExp(r, big.NewInt(priv.E), opts.Meter)
		input = new(big.Int).Mod(new(big.Int).Mul(c, re), priv.N)
		blindInv = rInv
	}

	var m *big.Int
	if opts.NoCRT {
		nctx, err := priv.montN()
		if err != nil {
			return nil, err
		}
		m = priv.exp(nctx, input, priv.D, opts)
		if opts.Fault != nil {
			m = flipBit(m, opts.Fault.FlipBit, priv.N)
		}
	} else {
		pctx, err := priv.montP()
		if err != nil {
			return nil, err
		}
		qctx, err := priv.montQ()
		if err != nil {
			return nil, err
		}
		m1 := priv.exp(pctx, new(big.Int).Mod(input, priv.P), priv.Dp, opts)
		m2 := priv.exp(qctx, new(big.Int).Mod(input, priv.Q), priv.Dq, opts)
		if opts.Fault != nil {
			// The canonical Boneh-DeMillo-Lipton setting: one glitch
			// corrupts exactly one CRT half.
			m1 = flipBit(m1, opts.Fault.FlipBit, priv.P)
		}
		// Garner recombination: m = m2 + q*(qinv*(m1-m2) mod p).
		h := new(big.Int).Sub(m1, m2)
		h.Mod(h, priv.P)
		h.Mul(h, priv.Qinv)
		h.Mod(h, priv.P)
		m = new(big.Int).Mul(h, priv.Q)
		m.Add(m, m2)
	}

	if opts.Blinding {
		m.Mul(m, blindInv)
		m.Mod(m, priv.N)
	}
	if opts.VerifyAfterSign {
		nctx, err := priv.montN()
		if err != nil {
			return nil, err
		}
		check := nctx.ModExp(m, big.NewInt(priv.E), opts.Meter)
		want := new(big.Int).Mod(c, priv.N)
		if check.Cmp(want) != 0 {
			return nil, ErrFaultDetected
		}
	}
	return m, nil
}

func (priv *PrivateKey) exp(ctx *mp.MontCtx, base, e *big.Int, opts *Options) *big.Int {
	if opts.ConstantTime {
		return ctx.ModExpConstTime(base, e, opts.Meter)
	}
	// Private exponents are long and dense, where the 4-bit fixed window
	// beats square-and-multiply. The deliberately leaky ModExp lives on in
	// internal/crypto/mp for the side-channel experiments.
	return ctx.ModExpWindow(base, e, opts.Meter)
}

func (priv *PrivateKey) blindingPair(rng io.Reader) (r, rInv *big.Int, err error) {
	buf := make([]byte, priv.Size())
	for {
		if _, err := io.ReadFull(rng, buf); err != nil {
			return nil, nil, err
		}
		r = new(big.Int).SetBytes(buf)
		r.Mod(r, priv.N)
		if r.Sign() == 0 {
			continue
		}
		rInv = new(big.Int).ModInverse(r, priv.N)
		if rInv != nil {
			return r, rInv, nil
		}
	}
}

func flipBit(v *big.Int, bit int, mod *big.Int) *big.Int {
	if bit < 0 {
		bit = 0
	}
	bit %= mod.BitLen()
	out := new(big.Int).Set(v)
	mask := new(big.Int).Lsh(big.NewInt(1), uint(bit))
	out.Xor(out, mask)
	return out
}

// EncryptPKCS1 encrypts msg under pub with PKCS#1 v1.5 (EME) padding,
// drawing the nonzero padding string from rng.
func EncryptPKCS1(rng io.Reader, pub *PublicKey, msg []byte) ([]byte, error) {
	k := pub.Size()
	if len(msg) > k-11 {
		return nil, ErrMessageTooLong
	}
	em := make([]byte, k)
	em[0] = 0x00
	em[1] = 0x02
	ps := em[2 : k-len(msg)-1]
	for i := range ps {
		for {
			var b [1]byte
			if _, err := io.ReadFull(rng, b[:]); err != nil {
				return nil, err
			}
			if b[0] != 0 {
				ps[i] = b[0]
				break
			}
		}
	}
	em[k-len(msg)-1] = 0x00
	copy(em[k-len(msg):], msg)

	ctx, err := pub.montN()
	if err != nil {
		return nil, err
	}
	c := ctx.ModExp(new(big.Int).SetBytes(em), big.NewInt(pub.E), nil)
	return leftPad(c.Bytes(), k), nil
}

// DecryptPKCS1 decrypts a PKCS#1 v1.5 ciphertext with the private key.
func DecryptPKCS1(priv *PrivateKey, ct []byte, opts *Options) ([]byte, error) {
	k := priv.Size()
	if len(ct) != k {
		return nil, ErrDecryption
	}
	c := new(big.Int).SetBytes(ct)
	if c.Cmp(priv.N) >= 0 {
		return nil, ErrDecryption
	}
	m, err := priv.privateExp(c, opts)
	if err != nil {
		return nil, err
	}
	em := leftPad(m.Bytes(), k)
	if em[0] != 0x00 || em[1] != 0x02 {
		return nil, ErrDecryption
	}
	// Find the 0x00 separator after at least 8 padding bytes.
	sep := -1
	for i := 2; i < len(em); i++ {
		if em[i] == 0x00 {
			sep = i
			break
		}
	}
	if sep < 10 {
		return nil, ErrDecryption
	}
	return em[sep+1:], nil
}

// digestInfoPrefix returns the DER DigestInfo prefix for the named hash.
func digestInfoPrefix(hashName string) ([]byte, error) {
	switch hashName {
	case "sha1":
		return []byte{0x30, 0x21, 0x30, 0x09, 0x06, 0x05, 0x2b, 0x0e,
			0x03, 0x02, 0x1a, 0x05, 0x00, 0x04, 0x14}, nil
	case "md5":
		return []byte{0x30, 0x20, 0x30, 0x0c, 0x06, 0x08, 0x2a, 0x86,
			0x48, 0x86, 0xf7, 0x0d, 0x02, 0x05, 0x05, 0x00, 0x04, 0x10}, nil
	default:
		return nil, fmt.Errorf("rsa: unsupported hash %q", hashName)
	}
}

func buildEMSA(k int, hashName string, digest []byte) ([]byte, error) {
	prefix, err := digestInfoPrefix(hashName)
	if err != nil {
		return nil, err
	}
	t := append(append([]byte{}, prefix...), digest...)
	if k < len(t)+11 {
		return nil, ErrMessageTooLong
	}
	em := make([]byte, k)
	em[0] = 0x00
	em[1] = 0x01
	for i := 2; i < k-len(t)-1; i++ {
		em[i] = 0xff
	}
	em[k-len(t)-1] = 0x00
	copy(em[k-len(t):], t)
	return em, nil
}

// EncodeEMSA exposes the deterministic EMSA-PKCS1-v1.5 encoding of a
// digest for a k-byte modulus. The fault attack (internal/attack/fault)
// needs it: the Boneh-DeMillo-Lipton factorization works from the *known*
// encoded message and a faulty signature.
func EncodeEMSA(k int, hashName string, digest []byte) ([]byte, error) {
	return buildEMSA(k, hashName, digest)
}

// SignPKCS1 signs the given hash digest with PKCS#1 v1.5 (EMSA) padding.
// hashName is "sha1" or "md5".
func SignPKCS1(priv *PrivateKey, hashName string, digest []byte, opts *Options) ([]byte, error) {
	em, err := buildEMSA(priv.Size(), hashName, digest)
	if err != nil {
		return nil, err
	}
	s, err := priv.privateExp(new(big.Int).SetBytes(em), opts)
	if err != nil {
		return nil, err
	}
	return leftPad(s.Bytes(), priv.Size()), nil
}

// VerifyPKCS1 verifies a PKCS#1 v1.5 signature over the given digest.
func VerifyPKCS1(pub *PublicKey, hashName string, digest, sig []byte) error {
	k := pub.Size()
	if len(sig) != k {
		return ErrVerification
	}
	s := new(big.Int).SetBytes(sig)
	if s.Cmp(pub.N) >= 0 {
		return ErrVerification
	}
	ctx, err := pub.montN()
	if err != nil {
		return err
	}
	m := ctx.ModExp(s, big.NewInt(pub.E), nil)
	want, err := buildEMSA(k, hashName, digest)
	if err != nil {
		return err
	}
	got := leftPad(m.Bytes(), k)
	if len(got) != len(want) {
		return ErrVerification
	}
	var diff byte
	for i := range got {
		diff |= got[i] ^ want[i]
	}
	if diff != 0 {
		return ErrVerification
	}
	return nil
}

func leftPad(b []byte, size int) []byte {
	if len(b) >= size {
		return b
	}
	out := make([]byte, size)
	copy(out[size-len(b):], b)
	return out
}
