package dh

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math/big"
	"sync"
	"testing"

	"repro/internal/crypto/mp"
	"repro/internal/crypto/prng"
)

func TestOakley2Parameters(t *testing.T) {
	g := Oakley2()
	if g.P.BitLen() != 1024 {
		t.Fatalf("Oakley group 2 prime is %d bits, want 1024", g.P.BitLen())
	}
	if !g.P.ProbablyPrime(8) {
		t.Fatal("Oakley group 2 modulus is not prime")
	}
	// Safe prime: (p-1)/2 is also prime.
	q := new(big.Int).Rsh(new(big.Int).Sub(g.P, big.NewInt(1)), 1)
	if !q.ProbablyPrime(4) {
		t.Fatal("Oakley group 2 is not a safe prime")
	}
}

func testGroup(t *testing.T) *Group {
	t.Helper()
	g, err := TestGroup512(prng.NewDRBG([]byte("dh-group")))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestKeyAgreement(t *testing.T) {
	g := testGroup(t)
	rng := prng.NewDRBG([]byte("agree"))
	alice, err := GenerateKeyPair(g, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	bob, err := GenerateKeyPair(g, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := alice.SharedSecret(bob.Public, nil)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := bob.SharedSecret(alice.Public, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s1, s2) {
		t.Fatal("shared secrets disagree")
	}
	if len(s1) != (g.P.BitLen()+7)/8 {
		t.Fatalf("secret length %d, want %d", len(s1), (g.P.BitLen()+7)/8)
	}
}

func TestDistinctPairsDistinctSecrets(t *testing.T) {
	g := testGroup(t)
	rng := prng.NewDRBG([]byte("distinct"))
	a, _ := GenerateKeyPair(g, rng, nil)
	b, _ := GenerateKeyPair(g, rng, nil)
	c, _ := GenerateKeyPair(g, rng, nil)
	sab, _ := a.SharedSecret(b.Public, nil)
	sac, _ := a.SharedSecret(c.Public, nil)
	if bytes.Equal(sab, sac) {
		t.Fatal("different peers produced the same secret")
	}
}

func TestRejectsInvalidPublic(t *testing.T) {
	g := testGroup(t)
	kp, _ := GenerateKeyPair(g, prng.NewDRBG([]byte("x")), nil)
	for _, bad := range []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		new(big.Int).Sub(g.P, big.NewInt(1)),
		new(big.Int).Add(g.P, big.NewInt(5)),
	} {
		if _, err := kp.SharedSecret(bad, nil); err != ErrInvalidPublic {
			t.Errorf("public value %v: want ErrInvalidPublic, got %v", bad, err)
		}
	}
}

func TestMeterAccumulates(t *testing.T) {
	g := testGroup(t)
	var m mp.CycleMeter
	if _, err := GenerateKeyPair(g, prng.NewDRBG([]byte("m")), &m); err != nil {
		t.Fatal(err)
	}
	if m.Cycles() == 0 {
		t.Fatal("key generation accrued no simulated cycles")
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	g := testGroup(t)
	a1, _ := GenerateKeyPair(g, prng.NewDRBG([]byte("same")), nil)
	a2, _ := GenerateKeyPair(g, prng.NewDRBG([]byte("same")), nil)
	if a1.Private.Cmp(a2.Private) != 0 || a1.Public.Cmp(a2.Public) != 0 {
		t.Fatal("same seed should give same key pair")
	}
}

func BenchmarkSharedSecret512(b *testing.B) {
	g, err := TestGroup512(prng.NewDRBG([]byte("dh-group")))
	if err != nil {
		b.Fatal(err)
	}
	rng := prng.NewDRBG([]byte("bench"))
	alice, _ := GenerateKeyPair(g, rng, nil)
	bob, _ := GenerateKeyPair(g, rng, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := alice.SharedSecret(bob.Public, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestGroup512Concurrent: concurrent first callers share one search and
// one group, and the first caller's rng fixes it. Run under -race it
// proves the cache is synchronised.
func TestGroup512Concurrent(t *testing.T) {
	testGroupMu.Lock()
	testGroupCache = nil
	testGroupMu.Unlock()
	const callers = 8
	groups := make([]*Group, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g, err := TestGroup512(prng.NewDRBG([]byte("dh-group")))
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			groups[i] = g
		}(i)
	}
	wg.Wait()
	for i, g := range groups {
		if g == nil || g != groups[0] {
			t.Fatalf("caller %d got group %p, caller 0 got %p", i, g, groups[0])
		}
	}
	if later, err := TestGroup512(prng.NewDRBG([]byte("another seed"))); err != nil || later != groups[0] {
		t.Fatalf("a later caller's rng replaced the cached group (%v)", err)
	}
}

type failingReader struct{}

func (failingReader) Read([]byte) (int, error) { return 0, errors.New("rng down") }

// TestGroup512FailureNotCached: a failed search leaves the cache empty,
// so the next caller searches with its own rng.
func TestGroup512FailureNotCached(t *testing.T) {
	testGroupMu.Lock()
	testGroupCache = nil
	testGroupMu.Unlock()
	if _, err := TestGroup512(failingReader{}); err == nil {
		t.Fatal("a failing rng produced a group")
	}
	if g, err := TestGroup512(prng.NewDRBG([]byte("dh-group"))); err != nil || g == nil {
		t.Fatalf("search after a failure: %v", err)
	}
}

// TestSafeGroupPinned pins the group the "dh-group" seed yields. The
// search may get faster, but it must keep finding the same 512-bit prime.
func TestSafeGroupPinned(t *testing.T) {
	g, err := generateSafeGroup(prng.NewDRBG([]byte("dh-group")), 512)
	if err != nil {
		t.Fatal(err)
	}
	if n := g.P.BitLen(); n != 512 {
		t.Fatalf("dh-group P has %d bits, want 512", n)
	}
	h := sha256.Sum256(g.P.Bytes())
	if got, want := hex.EncodeToString(h[:8]), "42980ce9e8e924b6"; got != want {
		t.Fatalf("dh-group P digest %s, want %s", got, want)
	}
}
