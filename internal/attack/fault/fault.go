// Package fault implements the Boneh-DeMillo-Lipton fault attack on
// RSA-CRT signatures ("On the importance of checking cryptographic
// protocols for faults" [42], cited in the paper's Section 3.4 as the
// flagship fault-induction attack).
//
// A single computational fault in one CRT half of a signature s over a
// known message m factors the modulus:
//
//	s^e ≡ m (mod q)  but  s^e ≢ m (mod p)
//	⇒ gcd(s^e − m, n) = q
//
// The glitch itself is injected by the victim's rsa.Options.Fault knob —
// the simulated stand-in for the voltage/clock/radiation manipulation the
// paper describes. The verify-before-release countermeasure
// (rsa.Options.VerifyAfterSign) makes the attack unmountable.
package fault

import (
	"errors"
	"math/big"

	"repro/internal/crypto/rsa"
)

// ErrNotFactored reports that the signature did not yield a factor (it
// was correct, or faulted in a non-exploitable way).
var ErrNotFactored = errors.New("fault: signature did not reveal a factor")

// FactorFromFaultySignature recovers a prime factor of pub.N from one
// faulty PKCS#1 v1.5 signature over the given digest.
func FactorFromFaultySignature(pub *rsa.PublicKey, hashName string, digest, faultySig []byte) (*big.Int, error) {
	k := pub.Size()
	if len(faultySig) != k {
		return nil, errors.New("fault: signature length mismatch")
	}
	em, err := rsa.EncodeEMSA(k, hashName, digest)
	if err != nil {
		return nil, err
	}
	m := new(big.Int).SetBytes(em)
	s := new(big.Int).SetBytes(faultySig)
	// gcd(s^e - m, n)
	se := new(big.Int).Exp(s, big.NewInt(pub.E), pub.N)
	diff := new(big.Int).Sub(se, m)
	diff.Mod(diff, pub.N)
	if diff.Sign() == 0 {
		return nil, ErrNotFactored // signature is actually valid
	}
	g := new(big.Int).GCD(nil, nil, diff, pub.N)
	if g.Cmp(big.NewInt(1)) == 0 || g.Cmp(pub.N) == 0 {
		return nil, ErrNotFactored
	}
	return g, nil
}

// RecoverPrivateKey rebuilds the full private key from one recovered
// factor — demonstrating that the single glitch is a total break.
func RecoverPrivateKey(pub *rsa.PublicKey, factor *big.Int) (*rsa.PrivateKey, error) {
	if factor.Sign() <= 0 {
		return nil, errors.New("fault: non-positive factor")
	}
	q := factor
	p := new(big.Int)
	rem := new(big.Int)
	p.QuoRem(pub.N, q, rem)
	if rem.Sign() != 0 {
		return nil, errors.New("fault: claimed factor does not divide N")
	}
	if p.Cmp(q) < 0 {
		p, q = q, p
	}
	one := big.NewInt(1)
	phi := new(big.Int).Mul(new(big.Int).Sub(p, one), new(big.Int).Sub(q, one))
	d := new(big.Int).ModInverse(big.NewInt(pub.E), phi)
	if d == nil {
		return nil, errors.New("fault: public exponent not invertible; wrong factor")
	}
	return &rsa.PrivateKey{
		PublicKey: rsa.PublicKey{N: pub.N, E: pub.E},
		D:         d,
		P:         p,
		Q:         q,
		Dp:        new(big.Int).Mod(d, new(big.Int).Sub(p, one)),
		Dq:        new(big.Int).Mod(d, new(big.Int).Sub(q, one)),
		Qinv:      new(big.Int).ModInverse(q, p),
	}, nil
}
