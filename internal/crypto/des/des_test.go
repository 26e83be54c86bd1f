package des

import (
	"bytes"
	stddes "crypto/des"
	"encoding/hex"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestFIPSVector checks the classic FIPS 46 example pair.
func TestFIPSVector(t *testing.T) {
	key, _ := hex.DecodeString("133457799BBCDFF1")
	pt, _ := hex.DecodeString("0123456789ABCDEF")
	want, _ := hex.DecodeString("85E813540F0AB405")
	c, err := NewCipher(key)
	if err != nil {
		t.Fatalf("NewCipher: %v", err)
	}
	got := make([]byte, 8)
	c.Encrypt(got, pt)
	if !bytes.Equal(got, want) {
		t.Fatalf("encrypt = %x, want %x", got, want)
	}
	back := make([]byte, 8)
	c.Decrypt(back, got)
	if !bytes.Equal(back, pt) {
		t.Fatalf("decrypt = %x, want %x", back, pt)
	}
	// K1 from the same worked example, read back from the packed keys.
	if got, want := c.Subkey(0), uint64(0x1B02EFFC7072); got != want {
		t.Fatalf("K1 = %012x, want %012x", got, want)
	}
}

// TestWeakKeyAllZero exercises a degenerate key to make sure the schedule
// doesn't blow up; the all-zero key is a documented DES weak key for which
// encryption is an involution.
func TestWeakKeyAllZero(t *testing.T) {
	key := make([]byte, 8)
	c, err := NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	pt := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	ct := make([]byte, 8)
	c.Encrypt(ct, pt)
	again := make([]byte, 8)
	c.Encrypt(again, ct)
	if !bytes.Equal(again, pt) {
		t.Fatalf("weak key should make Encrypt an involution: got %x want %x", again, pt)
	}
}

// TestAgainstStdlib cross-checks random key/plaintext pairs against the Go
// standard library DES implementation.
func TestAgainstStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		key := make([]byte, 8)
		pt := make([]byte, 8)
		rng.Read(key)
		rng.Read(pt)
		ours, err := NewCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := stddes.NewCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 8)
		want := make([]byte, 8)
		ours.Encrypt(got, pt)
		ref.Encrypt(want, pt)
		if !bytes.Equal(got, want) {
			t.Fatalf("key %x pt %x: encrypt = %x, stdlib %x", key, pt, got, want)
		}
		back := make([]byte, 8)
		ours.Decrypt(back, got)
		if !bytes.Equal(back, pt) {
			t.Fatalf("key %x: decrypt(encrypt(pt)) = %x, want %x", key, back, pt)
		}
	}
}

// TestTripleAgainstStdlib cross-checks 3DES with both keying options.
func TestTripleAgainstStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, klen := range []int{16, 24} {
		for i := 0; i < 100; i++ {
			key := make([]byte, klen)
			pt := make([]byte, 8)
			rng.Read(key)
			rng.Read(pt)
			ours, err := NewTripleCipher(key)
			if err != nil {
				t.Fatal(err)
			}
			refKey := key
			if klen == 16 {
				refKey = append(append([]byte{}, key...), key[:8]...)
			}
			ref, err := stddes.NewTripleDESCipher(refKey)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, 8)
			want := make([]byte, 8)
			ours.Encrypt(got, pt)
			ref.Encrypt(want, pt)
			if !bytes.Equal(got, want) {
				t.Fatalf("klen %d key %x: encrypt = %x, stdlib %x", klen, key, got, want)
			}
			back := make([]byte, 8)
			ours.Decrypt(back, got)
			if !bytes.Equal(back, pt) {
				t.Fatalf("klen %d: roundtrip failed", klen)
			}
		}
	}
}

// FuzzAgainstStdlib compares DES and 3DES with crypto/des in both
// directions, out of place and in place. The first input byte picks the
// key size (8, 16 or 24 bytes); the next bytes are the key and then the
// block, zero-padded when short.
func FuzzAgainstStdlib(f *testing.F) {
	f.Add([]byte{0})
	f.Add(append([]byte{1}, bytes.Repeat([]byte{0xa5}, 24)...))
	f.Add(append([]byte{2}, bytes.Repeat([]byte{0xff}, 32)...))
	f.Fuzz(func(t *testing.T, in []byte) {
		var buf [1 + 24 + BlockSize]byte
		copy(buf[:], in)
		klen := 8 * (1 + int(buf[0]%3))
		key, block := buf[1:1+klen], buf[1+klen:1+klen+BlockSize]
		var ours, ref interface {
			Encrypt(dst, src []byte)
			Decrypt(dst, src []byte)
		}
		var err error
		if klen == 8 {
			ours, err = NewCipher(key)
			if err == nil {
				ref, err = stddes.NewCipher(key)
			}
		} else {
			ours, err = NewTripleCipher(key)
			if err == nil {
				// crypto/des takes 24-byte keys only; keying option 2
				// repeats k1 as k3.
				ref, err = stddes.NewTripleDESCipher(append(append([]byte(nil), key...), key[:24-klen]...))
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, dir := range []struct {
			name      string
			ours, ref func(dst, src []byte)
		}{
			{"encrypt", ours.Encrypt, ref.Encrypt},
			{"decrypt", ours.Decrypt, ref.Decrypt},
		} {
			want := make([]byte, BlockSize)
			dir.ref(want, block)
			got := make([]byte, BlockSize)
			dir.ours(got, block)
			if !bytes.Equal(got, want) {
				t.Fatalf("%d-byte key %s(%x) = %x, want %x", klen, dir.name, block, got, want)
			}
			inPlace := append([]byte(nil), block...)
			dir.ours(inPlace, inPlace)
			if !bytes.Equal(inPlace, want) {
				t.Fatalf("%d-byte key in-place %s(%x) = %x, want %x", klen, dir.name, block, inPlace, want)
			}
		}
	})
}

// TestCipherAllocs pins the block operations at zero allocations and the
// constructors at one: the cipher itself, which holds its packed round
// keys.
func TestCipherAllocs(t *testing.T) {
	key := bytes.Repeat([]byte{0x5a}, 24)
	c, err := NewCipher(key[:8])
	if err != nil {
		t.Fatal(err)
	}
	tc, err := NewTripleCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, BlockSize)
	blocks := make([]byte, 3*BlockSize)
	for name, fn := range map[string]func(){
		"DES Encrypt":        func() { c.Encrypt(buf, buf) },
		"DES Decrypt":        func() { c.Decrypt(buf, buf) },
		"3DES Encrypt":       func() { tc.Encrypt(buf, buf) },
		"3DES Decrypt":       func() { tc.Decrypt(buf, buf) },
		"DES DecryptBlocks":  func() { c.DecryptBlocks(blocks, blocks) },
		"3DES DecryptBlocks": func() { tc.DecryptBlocks(blocks, blocks) },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s allocates %v times, want 0", name, n)
		}
	}
	if n := testing.AllocsPerRun(100, func() { c, _ = NewCipher(key[:8]) }); n != 1 {
		t.Errorf("NewCipher allocates %v times, want 1", n)
	}
	for _, klen := range []int{16, 24} {
		if n := testing.AllocsPerRun(100, func() { tc, _ = NewTripleCipher(key[:klen]) }); n != 1 {
			t.Errorf("NewTripleCipher(%d-byte key) allocates %v times, want 1", klen, n)
		}
	}
}

// TestRoundtripProperty is a testing/quick property: decrypt∘encrypt = id
// for arbitrary keys and blocks.
func TestRoundtripProperty(t *testing.T) {
	f := func(key, block [8]byte) bool {
		c, err := NewCipher(key[:])
		if err != nil {
			return false
		}
		ct := make([]byte, 8)
		pt := make([]byte, 8)
		c.Encrypt(ct, block[:])
		c.Decrypt(pt, ct)
		return bytes.Equal(pt, block[:])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestTripleRoundtripProperty checks the 3DES roundtrip for both keying
// options via testing/quick.
func TestTripleRoundtripProperty(t *testing.T) {
	f := func(key [24]byte, block [8]byte, twoKey bool) bool {
		k := key[:]
		if twoKey {
			k = key[:16]
		}
		c, err := NewTripleCipher(k)
		if err != nil {
			return false
		}
		ct := make([]byte, 8)
		pt := make([]byte, 8)
		c.Encrypt(ct, block[:])
		c.Decrypt(pt, ct)
		return bytes.Equal(pt, block[:])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestComplementationProperty verifies the DES complementation property
// E_k(p) = ^E_^k(^p), a strong structural check on the round function.
func TestComplementationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		key := make([]byte, 8)
		pt := make([]byte, 8)
		rng.Read(key)
		rng.Read(pt)
		nkey := make([]byte, 8)
		npt := make([]byte, 8)
		for j := range key {
			nkey[j] = ^key[j]
			npt[j] = ^pt[j]
		}
		c1, _ := NewCipher(key)
		c2, _ := NewCipher(nkey)
		ct1 := make([]byte, 8)
		ct2 := make([]byte, 8)
		c1.Encrypt(ct1, pt)
		c2.Encrypt(ct2, npt)
		for j := range ct1 {
			if ct1[j] != ^ct2[j] {
				t.Fatalf("complementation property violated at byte %d", j)
			}
		}
	}
}

func TestKeySizeErrors(t *testing.T) {
	for _, n := range []int{0, 7, 9, 16} {
		if _, err := NewCipher(make([]byte, n)); err == nil {
			t.Errorf("NewCipher accepted %d-byte key", n)
		}
	}
	for _, n := range []int{0, 8, 23, 25} {
		if _, err := NewTripleCipher(make([]byte, n)); err == nil {
			t.Errorf("NewTripleCipher accepted %d-byte key", n)
		}
	}
	if got := KeySizeError(7).Error(); got == "" {
		t.Error("empty KeySizeError message")
	}
}

// TestSubkeysDistinct ensures the key schedule produces 16 distinct
// subkeys for a non-degenerate key.
func TestSubkeysDistinct(t *testing.T) {
	c, _ := NewCipher([]byte{0x13, 0x34, 0x57, 0x79, 0x9B, 0xBC, 0xDF, 0xF1})
	seen := map[uint64]bool{}
	for i := 0; i < 16; i++ {
		k := c.Subkey(i)
		if k >= 1<<48 {
			t.Fatalf("subkey %d exceeds 48 bits", i)
		}
		if seen[k] {
			t.Fatalf("duplicate subkey %d", i)
		}
		seen[k] = true
	}
}

// TestSBoxNonlinearity spot-checks a handful of published S-box entries.
func TestSBoxNonlinearity(t *testing.T) {
	// S1 row 0 col 0 = 14; S8 row 3 col 15 = 11.
	if got := SBox(0, 0); got != 14 {
		t.Errorf("S1(0) = %d, want 14", got)
	}
	// in6 = 0b111111 → row 3, col 15.
	if got := SBox(7, 0x3f); got != 11 {
		t.Errorf("S8(0x3f) = %d, want 11", got)
	}
}

func BenchmarkEncrypt(b *testing.B) {
	c, _ := NewCipher(make([]byte, 8))
	buf := make([]byte, 8)
	b.SetBytes(8)
	for i := 0; i < b.N; i++ {
		c.Encrypt(buf, buf)
	}
}

func BenchmarkTripleEncrypt(b *testing.B) {
	c, _ := NewTripleCipher(make([]byte, 24))
	buf := make([]byte, 8)
	b.SetBytes(8)
	for i := 0; i < b.N; i++ {
		c.Encrypt(buf, buf)
	}
}
