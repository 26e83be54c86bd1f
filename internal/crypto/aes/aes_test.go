package aes

import (
	"bytes"
	stdaes "crypto/aes"
	"encoding/hex"
	"math/rand"
	"testing"
	"testing/quick"
)

// FIPS 197 Appendix C example vectors for all three key sizes.
var fipsVectors = []struct {
	key, pt, ct string
}{
	{
		"000102030405060708090a0b0c0d0e0f",
		"00112233445566778899aabbccddeeff",
		"69c4e0d86a7b0430d8cdb78070b4c55a",
	},
	{
		"000102030405060708090a0b0c0d0e0f1011121314151617",
		"00112233445566778899aabbccddeeff",
		"dda97ca4864cdfe06eaf70a0ec0d7191",
	},
	{
		"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
		"00112233445566778899aabbccddeeff",
		"8ea2b7ca516745bfeafc49904b496089",
	},
}

func TestFIPSVectors(t *testing.T) {
	for _, v := range fipsVectors {
		key, _ := hex.DecodeString(v.key)
		pt, _ := hex.DecodeString(v.pt)
		want, _ := hex.DecodeString(v.ct)
		c, err := NewCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 16)
		c.Encrypt(got, pt)
		if !bytes.Equal(got, want) {
			t.Errorf("AES-%d: encrypt = %x, want %x", len(key)*8, got, want)
			continue
		}
		back := make([]byte, 16)
		c.Decrypt(back, got)
		if !bytes.Equal(back, pt) {
			t.Errorf("AES-%d: decrypt roundtrip failed", len(key)*8)
		}
	}
}

func TestAgainstStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, klen := range []int{16, 24, 32} {
		for i := 0; i < 100; i++ {
			key := make([]byte, klen)
			pt := make([]byte, 16)
			rng.Read(key)
			rng.Read(pt)
			ours, err := NewCipher(key)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := stdaes.NewCipher(key)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, 16)
			want := make([]byte, 16)
			ours.Encrypt(got, pt)
			ref.Encrypt(want, pt)
			if !bytes.Equal(got, want) {
				t.Fatalf("AES-%d key %x: encrypt mismatch", klen*8, key)
			}
			back := make([]byte, 16)
			ours.Decrypt(back, got)
			if !bytes.Equal(back, pt) {
				t.Fatalf("AES-%d: roundtrip failed", klen*8)
			}
			// Decrypt on its own: a random ciphertext, not one we made.
			ct := make([]byte, 16)
			rng.Read(ct)
			ours.Decrypt(got, ct)
			ref.Decrypt(want, ct)
			if !bytes.Equal(got, want) {
				t.Fatalf("AES-%d key %x: decrypt mismatch on %x", klen*8, key, ct)
			}
		}
	}
}

// FuzzAgainstStdlib compares Encrypt and Decrypt with crypto/aes, out of
// place and in place. The first input byte picks the key size; the next
// bytes are the key and then the block, zero-padded when short.
func FuzzAgainstStdlib(f *testing.F) {
	f.Add([]byte{0})
	f.Add(append([]byte{1}, bytes.Repeat([]byte{0xa5}, 40)...))
	f.Add(append([]byte{2}, bytes.Repeat([]byte{0xff}, 48)...))
	f.Fuzz(func(t *testing.T, in []byte) {
		var buf [1 + 32 + BlockSize]byte
		copy(buf[:], in)
		klen := 16 + 8*int(buf[0]%3)
		key, block := buf[1:1+klen], buf[1+klen:1+klen+BlockSize]
		ours, err := NewCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := stdaes.NewCipher(key)
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
				t.Fatalf("AES-%d %s(%x) = %x, want %x", klen*8, dir.name, block, got, want)
			}
			inPlace := append([]byte(nil), block...)
			dir.ours(inPlace, inPlace)
			if !bytes.Equal(inPlace, want) {
				t.Fatalf("AES-%d in-place %s(%x) = %x, want %x", klen*8, dir.name, block, inPlace, want)
			}
		}
	})
}

// TestCipherAllocs pins the block operations at zero allocations and
// NewCipher at one: the Cipher itself, which holds its round keys.
func TestCipherAllocs(t *testing.T) {
	key := make([]byte, 32)
	c, err := NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, BlockSize)
	if n := testing.AllocsPerRun(100, func() { c.Encrypt(buf, buf) }); n != 0 {
		t.Errorf("Encrypt allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { c.Decrypt(buf, buf) }); n != 0 {
		t.Errorf("Decrypt allocates %v times, want 0", n)
	}
	for _, klen := range []int{16, 24, 32} {
		if n := testing.AllocsPerRun(100, func() { c, _ = NewCipher(key[:klen]) }); n != 1 {
			t.Errorf("NewCipher(%d-byte key) allocates %v times, want 1", klen, n)
		}
	}
}

func TestRoundtripProperty(t *testing.T) {
	f := func(key [16]byte, block [16]byte) bool {
		c, err := NewCipher(key[:])
		if err != nil {
			return false
		}
		ct := make([]byte, 16)
		pt := make([]byte, 16)
		c.Encrypt(ct, block[:])
		c.Decrypt(pt, ct)
		return bytes.Equal(pt, block[:])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSBoxProperties checks the generated S-box against its defining
// algebraic properties and two published entries.
func TestSBoxProperties(t *testing.T) {
	if SBox(0x00) != 0x63 {
		t.Errorf("SBox(0x00) = %#x, want 0x63", SBox(0x00))
	}
	if SBox(0x53) != 0xed {
		t.Errorf("SBox(0x53) = %#x, want 0xed", SBox(0x53))
	}
	// Bijectivity and no fixed points (including anti-fixed points).
	var seen [256]bool
	for i := 0; i < 256; i++ {
		s := SBox(byte(i))
		if seen[s] {
			t.Fatalf("S-box not a bijection at %d", i)
		}
		seen[s] = true
		if s == byte(i) {
			t.Fatalf("S-box fixed point at %#x", i)
		}
		if s == byte(i)^0xff {
			t.Fatalf("S-box anti-fixed point at %#x", i)
		}
		if invSbox[s] != byte(i) {
			t.Fatalf("inverse S-box mismatch at %#x", i)
		}
	}
}

func TestKeySizeErrors(t *testing.T) {
	for _, n := range []int{0, 15, 17, 31, 33} {
		if _, err := NewCipher(make([]byte, n)); err == nil {
			t.Errorf("accepted %d-byte key", n)
		}
	}
	if KeySizeError(3).Error() == "" {
		t.Error("empty error message")
	}
}

func TestGFMul(t *testing.T) {
	// {57} • {83} = {c1} from the FIPS 197 example.
	if got := gfMul(0x57, 0x83); got != 0xc1 {
		t.Fatalf("gfMul(0x57,0x83) = %#x, want 0xc1", got)
	}
	// Commutativity property.
	f := func(a, b byte) bool { return gfMul(a, b) == gfMul(b, a) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncrypt(b *testing.B) {
	c, _ := NewCipher(make([]byte, 16))
	buf := make([]byte, 16)
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		c.Encrypt(buf, buf)
	}
}

func BenchmarkDecrypt(b *testing.B) {
	c, _ := NewCipher(make([]byte, 16))
	buf := make([]byte, 16)
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		c.Decrypt(buf, buf)
	}
}
