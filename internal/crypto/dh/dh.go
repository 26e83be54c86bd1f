// Package dh implements finite-field Diffie-Hellman key agreement from
// scratch over the Montgomery engine in internal/crypto/mp.
//
// DH (and the KEA variant) is the alternative key-exchange algorithm the
// paper's SSL flexibility discussion lists next to RSA (Section 3.1), and
// "public key operations (RSA/DH)" are named as prime accelerator targets
// in Section 4.1.
package dh

import (
	"errors"
	"io"
	"math/big"
	"sync"

	"repro/internal/crypto/mp"
)

// Group is a Diffie-Hellman group: a prime modulus and a generator.
type Group struct {
	Name string
	P    *big.Int
	G    *big.Int
}

// oakley2Hex is the 1024-bit MODP prime of RFC 2409 (Oakley group 2),
// the group contemporaneous with the paper's protocols.
const oakley2Hex = "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1" +
	"29024E088A67CC74020BBEA63B139B22514A08798E3404DD" +
	"EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245" +
	"E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED" +
	"EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE65381" +
	"FFFFFFFFFFFFFFFF"

// Oakley2 returns the 1024-bit MODP group (RFC 2409 group 2, generator 2).
func Oakley2() *Group {
	p, _ := new(big.Int).SetString(oakley2Hex, 16)
	return &Group{Name: "modp1024", P: p, G: big.NewInt(2)}
}

// testGroupCache holds the group TestGroup512 generates; testGroupMu orders
// its first write before every read.
var (
	testGroupMu    sync.Mutex
	testGroupCache *Group
)

// TestGroup512 returns a small safe-prime group for fast tests and
// examples. Not for real security margins — the paper's own protocols of
// 2003 used 512-768 bit "export" moduli in exactly this spirit.
//
// The group is searched for once and cached: the first caller's rng fixes
// it, and later callers get the same group whatever rng they pass. A
// failed search caches nothing, so the next caller searches again. Safe
// for concurrent use; concurrent first callers wait for one search.
func TestGroup512(rng io.Reader) (*Group, error) {
	testGroupMu.Lock()
	defer testGroupMu.Unlock()
	if testGroupCache == nil {
		g, err := generateSafeGroup(rng, 512)
		if err != nil {
			return nil, err
		}
		testGroupCache = g
	}
	return testGroupCache, nil
}

func generateSafeGroup(rng io.Reader, bits int) (*Group, error) {
	buf := make([]byte, bits/8)
	one := big.NewInt(1)
	for {
		if _, err := io.ReadFull(rng, buf); err != nil {
			return nil, err
		}
		// q has exactly bits-1 bits, so P = 2q+1 has exactly bits.
		q := new(big.Int).SetBytes(buf)
		q.SetBit(q, bits-1, 0)
		q.SetBit(q, bits-2, 1)
		q.SetBit(q, 0, 1)
		// The screen covers q and 2q+1 and rejects only composites, so
		// ProbablyPrime still decides both and the group is unchanged.
		if !mp.ScreenSafePrime(q) || !q.ProbablyPrime(16) {
			continue
		}
		p := new(big.Int).Lsh(q, 1)
		p.Add(p, one)
		if p.ProbablyPrime(16) {
			return &Group{Name: "test512", P: p, G: big.NewInt(2)}, nil
		}
	}
}

// KeyPair is a DH private/public key pair.
type KeyPair struct {
	Group   *Group
	Private *big.Int
	Public  *big.Int
}

// ErrInvalidPublic reports a peer public value outside (1, p-1).
var ErrInvalidPublic = errors.New("dh: invalid peer public value")

// GenerateKeyPair draws a private exponent from rng and computes the
// public value g^x mod p. meter (optional) accrues simulated cycles.
func GenerateKeyPair(g *Group, rng io.Reader, meter *mp.CycleMeter) (*KeyPair, error) {
	ctx, err := mp.NewMontCtx(g.P)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, (g.P.BitLen()+7)/8)
	for {
		if _, err := io.ReadFull(rng, buf); err != nil {
			return nil, err
		}
		x := new(big.Int).SetBytes(buf)
		x.Mod(x, new(big.Int).Sub(g.P, big.NewInt(2)))
		x.Add(x, big.NewInt(2)) // x in [2, p-1)
		pub := ctx.ModExpWindow(g.G, x, meter)
		if validPublic(g, pub) {
			return &KeyPair{Group: g, Private: x, Public: pub}, nil
		}
	}
}

func validPublic(g *Group, y *big.Int) bool {
	if y.Cmp(big.NewInt(2)) < 0 {
		return false
	}
	max := new(big.Int).Sub(g.P, big.NewInt(1))
	return y.Cmp(max) < 0
}

// SharedSecret computes peerPublic^private mod p, validating the peer
// value first (the small-subgroup hygiene real stacks need).
func (kp *KeyPair) SharedSecret(peerPublic *big.Int, meter *mp.CycleMeter) ([]byte, error) {
	if !validPublic(kp.Group, peerPublic) {
		return nil, ErrInvalidPublic
	}
	ctx, err := mp.NewMontCtx(kp.Group.P)
	if err != nil {
		return nil, err
	}
	s := ctx.ModExpWindow(peerPublic, kp.Private, meter)
	size := (kp.Group.P.BitLen() + 7) / 8
	out := make([]byte, size)
	b := s.Bytes()
	copy(out[size-len(b):], b)
	return out, nil
}
