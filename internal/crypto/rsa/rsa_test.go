package rsa

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/big"
	"sync"
	"testing"

	"repro/internal/crypto/mp"
	"repro/internal/crypto/prng"
	"repro/internal/crypto/sha1"
)

// raceEnabled is set when the tests run under the race detector.
var raceEnabled bool

// testKey generates a deterministic key once per size and caches it; RSA
// keygen dominates test time otherwise.
var keyCache = map[int]*PrivateKey{}

func testKey(t *testing.T, bits int) *PrivateKey {
	t.Helper()
	if k, ok := keyCache[bits]; ok {
		return k
	}
	k, err := GenerateKey(prng.NewDRBG([]byte("rsa-test-key")), bits)
	if err != nil {
		t.Fatalf("GenerateKey(%d): %v", bits, err)
	}
	keyCache[bits] = k
	return k
}

func TestGenerateKeyStructure(t *testing.T) {
	k := testKey(t, 512)
	if k.N.BitLen() != 512 {
		t.Fatalf("modulus %d bits, want 512", k.N.BitLen())
	}
	if new(big.Int).Mul(k.P, k.Q).Cmp(k.N) != 0 {
		t.Fatal("N != P*Q")
	}
	// e*d ≡ 1 mod φ(n)
	phi := new(big.Int).Mul(
		new(big.Int).Sub(k.P, big.NewInt(1)),
		new(big.Int).Sub(k.Q, big.NewInt(1)))
	ed := new(big.Int).Mul(big.NewInt(k.E), k.D)
	if new(big.Int).Mod(ed, phi).Int64() != 1 {
		t.Fatal("e*d != 1 mod phi")
	}
	// CRT parameters.
	if new(big.Int).Mod(new(big.Int).Mul(k.Qinv, k.Q), k.P).Int64() != 1 {
		t.Fatal("qinv*q != 1 mod p")
	}
}

func TestGenerateKeyRejectsTiny(t *testing.T) {
	if _, err := GenerateKey(prng.NewDRBG(nil), 64); err == nil {
		t.Fatal("accepted 64-bit modulus")
	}
}

func TestEncryptDecryptRoundtrip(t *testing.T) {
	k := testKey(t, 512)
	rng := prng.NewDRBG([]byte("enc"))
	for _, msg := range [][]byte{
		[]byte(""),
		[]byte("a"),
		[]byte("pre-master secret!"),
		bytes.Repeat([]byte{0xff}, 512/8-11),
	} {
		ct, err := EncryptPKCS1(rng, &k.PublicKey, msg)
		if err != nil {
			t.Fatalf("encrypt %q: %v", msg, err)
		}
		pt, err := DecryptPKCS1(k, ct, nil)
		if err != nil {
			t.Fatalf("decrypt %q: %v", msg, err)
		}
		if !bytes.Equal(pt, msg) {
			t.Fatalf("roundtrip %q -> %q", msg, pt)
		}
	}
}

func TestEncryptTooLong(t *testing.T) {
	k := testKey(t, 512)
	msg := make([]byte, 512/8-10)
	if _, err := EncryptPKCS1(prng.NewDRBG(nil), &k.PublicKey, msg); err != ErrMessageTooLong {
		t.Fatalf("want ErrMessageTooLong, got %v", err)
	}
}

func TestDecryptRejectsGarbage(t *testing.T) {
	k := testKey(t, 512)
	if _, err := DecryptPKCS1(k, make([]byte, 3), nil); err == nil {
		t.Fatal("accepted short ciphertext")
	}
	big := bytes.Repeat([]byte{0xff}, k.Size())
	if _, err := DecryptPKCS1(k, big, nil); err == nil {
		t.Fatal("accepted ciphertext >= N")
	}
}

func TestSignVerify(t *testing.T) {
	k := testKey(t, 512)
	digest := sha1.Sum([]byte("signed message"))
	for _, opts := range []*Options{
		nil,
		{NoCRT: true},
		{ConstantTime: true},
		{Blinding: true, Rand: prng.NewDRBG([]byte("blind"))},
		{VerifyAfterSign: true},
	} {
		sig, err := SignPKCS1(k, "sha1", digest[:], opts)
		if err != nil {
			t.Fatalf("sign with %+v: %v", opts, err)
		}
		if err := VerifyPKCS1(&k.PublicKey, "sha1", digest[:], sig); err != nil {
			t.Fatalf("verify with %+v: %v", opts, err)
		}
	}
}

func TestCRTMatchesNoCRT(t *testing.T) {
	k := testKey(t, 512)
	digest := sha1.Sum([]byte("crt equivalence"))
	s1, err := SignPKCS1(k, "sha1", digest[:], nil)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := SignPKCS1(k, "sha1", digest[:], &Options{NoCRT: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s1, s2) {
		t.Fatal("CRT and non-CRT signatures differ")
	}
}

func TestVerifyRejectsTamper(t *testing.T) {
	k := testKey(t, 512)
	digest := sha1.Sum([]byte("message"))
	sig, _ := SignPKCS1(k, "sha1", digest[:], nil)

	bad := append([]byte{}, sig...)
	bad[5] ^= 1
	if VerifyPKCS1(&k.PublicKey, "sha1", digest[:], bad) == nil {
		t.Fatal("accepted corrupted signature")
	}
	other := sha1.Sum([]byte("other message"))
	if VerifyPKCS1(&k.PublicKey, "sha1", other[:], sig) == nil {
		t.Fatal("accepted signature over wrong digest")
	}
	if VerifyPKCS1(&k.PublicKey, "sha1", digest[:], sig[:10]) == nil {
		t.Fatal("accepted truncated signature")
	}
}

func TestSignMD5(t *testing.T) {
	k := testKey(t, 512)
	digest := make([]byte, 16)
	sig, err := SignPKCS1(k, "md5", digest, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyPKCS1(&k.PublicKey, "md5", digest, sig); err != nil {
		t.Fatal(err)
	}
	if VerifyPKCS1(&k.PublicKey, "sha1", append(digest, 0, 0, 0, 0), sig) == nil {
		t.Fatal("hash algorithm confusion accepted")
	}
}

func TestUnsupportedHash(t *testing.T) {
	k := testKey(t, 512)
	if _, err := SignPKCS1(k, "sha256", make([]byte, 32), nil); err == nil {
		t.Fatal("accepted unsupported hash")
	}
}

// TestFaultInjectionBreaksSignature: with a fault and no countermeasure
// the signature is invalid — the precondition of the BDL attack.
func TestFaultInjectionBreaksSignature(t *testing.T) {
	k := testKey(t, 512)
	digest := sha1.Sum([]byte("faulted"))
	sig, err := SignPKCS1(k, "sha1", digest[:], &Options{Fault: &Fault{FlipBit: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if VerifyPKCS1(&k.PublicKey, "sha1", digest[:], sig) == nil {
		t.Fatal("faulty signature verified")
	}
}

// TestVerifyAfterSignCatchesFault: the countermeasure refuses to release a
// faulty signature.
func TestVerifyAfterSignCatchesFault(t *testing.T) {
	k := testKey(t, 512)
	digest := sha1.Sum([]byte("protected"))
	_, err := SignPKCS1(k, "sha1", digest[:], &Options{
		Fault:           &Fault{FlipBit: 3},
		VerifyAfterSign: true,
	})
	if err != ErrFaultDetected {
		t.Fatalf("want ErrFaultDetected, got %v", err)
	}
}

func TestBlindingRequiresRand(t *testing.T) {
	k := testKey(t, 512)
	digest := sha1.Sum([]byte("m"))
	if _, err := SignPKCS1(k, "sha1", digest[:], &Options{Blinding: true}); err == nil {
		t.Fatal("blinding without Rand accepted")
	}
}

// TestCRTFasterThanNoCRT: the CRT path should cost roughly 4x less in
// simulated cycles — the reason implementations use it despite the fault
// risk (Section 3.4).
func TestCRTFasterThanNoCRT(t *testing.T) {
	k := testKey(t, 512)
	digest := sha1.Sum([]byte("cycles"))
	var crt, plain mp.CycleMeter
	if _, err := SignPKCS1(k, "sha1", digest[:], &Options{Meter: &crt}); err != nil {
		t.Fatal(err)
	}
	if _, err := SignPKCS1(k, "sha1", digest[:], &Options{NoCRT: true, Meter: &plain}); err != nil {
		t.Fatal(err)
	}
	ratio := float64(plain.Cycles()) / float64(crt.Cycles())
	if ratio < 2.5 || ratio > 6 {
		t.Fatalf("no-CRT/CRT cycle ratio = %.2f, want ≈4", ratio)
	}
}

func TestPublicKeySize(t *testing.T) {
	k := testKey(t, 512)
	if k.Size() != 64 {
		t.Fatalf("Size = %d, want 64", k.Size())
	}
}

func BenchmarkSignCRT512(b *testing.B) {
	k, _ := GenerateKey(prng.NewDRBG([]byte("bench")), 512)
	digest := sha1.Sum([]byte("bench"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SignPKCS1(k, "sha1", digest[:], nil); err != nil {
			b.Fatal(err)
		}
	}
}

// bareKey rebuilds k from its exported fields, as a parser or the fault
// attack builds a key: it has no Montgomery contexts until first use.
func bareKey(k *PrivateKey) *PrivateKey {
	return &PrivateKey{PublicKey: PublicKey{N: k.N, E: k.E}, D: k.D, P: k.P, Q: k.Q,
		Dp: k.Dp, Dq: k.Dq, Qinv: k.Qinv}
}

// TestSharedKeyConcurrent: eight goroutines sign, verify and decrypt with
// one PrivateKey and exponentiate on one shared MontCtx at once, as a
// gateway's workers do. The key starts without Montgomery contexts, so
// the goroutines also race to build them. Run under -race it proves
// neither keeps per-call state and the contexts are published safely.
func TestSharedKeyConcurrent(t *testing.T) {
	k := bareKey(testKey(t, 512))
	ctx, err := mp.NewMontCtx(k.N)
	if err != nil {
		t.Fatal(err)
	}
	e := big.NewInt(k.E)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := prng.NewDRBG([]byte{byte(w)})
			opts := []*Options{nil, {NoCRT: true}, {ConstantTime: true},
				{Blinding: true, Rand: rng, VerifyAfterSign: true}}
			for i := 0; i < 4; i++ {
				digest := sha1.Sum([]byte{byte(w), byte(i)})
				sig, err := SignPKCS1(k, "sha1", digest[:], opts[i])
				if err != nil {
					t.Errorf("worker %d: sign: %v", w, err)
					return
				}
				if err := VerifyPKCS1(&k.PublicKey, "sha1", digest[:], sig); err != nil {
					t.Errorf("worker %d: verify: %v", w, err)
					return
				}
				s := new(big.Int).SetBytes(sig)
				if got, want := ctx.ModExpWindow(s, e, nil), new(big.Int).Exp(s, e, k.N); got.Cmp(want) != 0 {
					t.Errorf("worker %d: shared-context exponentiation mismatch", w)
					return
				}
				msg := []byte{byte(w), byte(i), 0x5a}
				ct, err := EncryptPKCS1(rng, &k.PublicKey, msg)
				if err != nil {
					t.Errorf("worker %d: encrypt: %v", w, err)
					return
				}
				pt, err := DecryptPKCS1(k, ct, opts[i])
				if err != nil || !bytes.Equal(pt, msg) {
					t.Errorf("worker %d: decrypt = %x, %v; want %x", w, pt, err, msg)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestSignCRT512Allocs bounds the allocations of one CRT signature, the
// server's per-handshake RSA cost: the Montgomery core allocates only its
// working limbs, so the count no longer grows with the operand length,
// and the key keeps its CRT Montgomery contexts, so a signature builds
// none. Under the race detector sync.Pool drops pooled values at random,
// so math/big allocates a few more (22-25 measured).
func TestSignCRT512Allocs(t *testing.T) {
	k := testKey(t, 512)
	digest := sha1.Sum([]byte("allocs"))
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := SignPKCS1(k, "sha1", digest[:], nil); err != nil {
			t.Fatal(err)
		}
	})
	limit := 21.0
	if raceEnabled {
		limit = 30
	}
	if allocs > limit {
		t.Fatalf("SignPKCS1 (CRT, 512-bit) allocates %v objects, want <= %v", allocs, limit)
	}
}

// keyDigest is the first 8 bytes of SHA-256 over N and D, hex-encoded:
// enough to pin a derived key bit for bit.
func keyDigest(k *PrivateKey) string {
	h := sha256.Sum256([]byte(k.N.Text(16) + "/" + k.D.Text(16)))
	return hex.EncodeToString(h[:8])
}

// TestGenerateKeyPinned pins the keys the figures and attack labs derive.
// Key generation may get faster, but every DRBG seed must keep yielding
// the same key.
func TestGenerateKeyPinned(t *testing.T) {
	for _, c := range []struct {
		seed string
		bits int
		want string
	}{
		{"repro-fault", 512, "add91c869f29ff01"},
		{"lab-fault", 512, "1f48677a11bfaf6f"},
		{"rsa-test-key", 512, "9d1c75184a7e0ac5"},
		{"rsa-test-key", 768, "b4396901a1d35665"},
		{"rsa-test-key", 1024, "28186a013231e463"},
	} {
		k, err := GenerateKey(prng.NewDRBG([]byte(c.seed)), c.bits)
		if err != nil {
			t.Fatalf("%s/%d: %v", c.seed, c.bits, err)
		}
		if got := keyDigest(k); got != c.want {
			t.Errorf("GenerateKey(%q, %d) digest %s, want %s", c.seed, c.bits, got, c.want)
		}
	}
}

// TestMontCtxFollowsKeyFields: a kept Montgomery context never outlives
// the modulus it was built for. Replacing a key's fields after use gives
// the results of the new key.
func TestMontCtxFollowsKeyFields(t *testing.T) {
	a := testKey(t, 512)
	b, err := GenerateKey(prng.NewDRBG([]byte("another key")), 512)
	if err != nil {
		t.Fatal(err)
	}
	k := bareKey(a)
	digest := sha1.Sum([]byte("fields"))
	if _, err := SignPKCS1(k, "sha1", digest[:], &Options{VerifyAfterSign: true}); err != nil {
		t.Fatal(err)
	}
	k.N, k.D, k.P, k.Q, k.Dp, k.Dq, k.Qinv = b.N, b.D, b.P, b.Q, b.Dp, b.Dq, b.Qinv
	sig, err := SignPKCS1(k, "sha1", digest[:], &Options{VerifyAfterSign: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyPKCS1(&b.PublicKey, "sha1", digest[:], sig); err != nil {
		t.Fatalf("signature after replacing the key's fields: %v", err)
	}
}

// TestGenerateKeyBuildsMontCtx: a generated key carries the contexts of
// N, P and Q, so its first operation builds none.
func TestGenerateKeyBuildsMontCtx(t *testing.T) {
	k := testKey(t, 512)
	for name, c := range map[string]*mp.MontCtx{"N": k.nCtx.Load(), "P": k.pCtx.Load(), "Q": k.qCtx.Load()} {
		if c == nil {
			t.Errorf("GenerateKey left no Montgomery context for %s", name)
		}
	}
	if c := k.pCtx.Load(); c != nil && c.N.Cmp(k.P) != 0 {
		t.Error("P's Montgomery context has another modulus")
	}
}

func BenchmarkGenerateKey512(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := GenerateKey(prng.NewDRBG([]byte("bench")), 512); err != nil {
			b.Fatal(err)
		}
	}
}
