package modes

import (
	"bytes"
	stdaes "crypto/aes"
	stdcipher "crypto/cipher"
	stddes "crypto/des"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/crypto/aes"
	"repro/internal/crypto/des"
)

func mustAES(t *testing.T, key []byte) Block {
	c, err := aes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mustTripleDES(t *testing.T) Block {
	c, err := des.NewTripleCipher(bytes.Repeat([]byte{0x5a}, 24))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPadUnpadProperty(t *testing.T) {
	f := func(data []byte) bool {
		for _, bs := range []int{8, 16} {
			padded := Pad(data, bs)
			if len(padded)%bs != 0 || len(padded) <= len(data) {
				return false
			}
			out, err := Unpad(padded, bs)
			if err != nil || !bytes.Equal(out, data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnpadRejectsCorrupt(t *testing.T) {
	cases := [][]byte{
		{},
		{1, 2, 3},                // not block aligned
		{0, 0, 0, 0, 0, 0, 0, 0}, // zero pad byte
		{1, 2, 3, 4, 5, 6, 7, 9}, // pad byte > block size
		{1, 2, 3, 4, 5, 6, 2, 3}, // inconsistent padding
	}
	for i, c := range cases {
		if _, err := Unpad(c, 8); err == nil {
			t.Errorf("case %d: Unpad accepted corrupt padding %v", i, c)
		}
	}
}

func TestECBRoundtrip(t *testing.T) {
	key := make([]byte, 16)
	c := mustAES(t, key)
	pt := Pad([]byte("electronic codebook mode test"), 16)
	ct, err := EncryptECB(c, pt)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecryptECB(c, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, pt) {
		t.Fatal("ECB roundtrip failed")
	}
	// ECB leaks equal blocks — the property that motivates CBC.
	pt2 := bytes.Repeat([]byte{0xab}, 32)
	ct2, _ := EncryptECB(c, pt2)
	if !bytes.Equal(ct2[:16], ct2[16:]) {
		t.Fatal("ECB should encrypt equal blocks identically")
	}
}

func TestCBCAgainstStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		key := make([]byte, 16)
		iv := make([]byte, 16)
		pt := make([]byte, 16*(1+rng.Intn(8)))
		rng.Read(key)
		rng.Read(iv)
		rng.Read(pt)

		ours := mustAES(t, key)
		got, err := EncryptCBC(ours, iv, pt)
		if err != nil {
			t.Fatal(err)
		}
		ref, _ := stdaes.NewCipher(key)
		want := make([]byte, len(pt))
		stdcipher.NewCBCEncrypter(ref, iv).CryptBlocks(want, pt)
		if !bytes.Equal(got, want) {
			t.Fatalf("CBC encrypt mismatch with stdlib (iter %d)", i)
		}
		back, err := DecryptCBC(ours, iv, got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, pt) {
			t.Fatal("CBC roundtrip failed")
		}
	}
}

func TestCBCHidesEqualBlocks(t *testing.T) {
	c := mustAES(t, make([]byte, 16))
	iv := make([]byte, 16)
	iv[0] = 1
	pt := bytes.Repeat([]byte{0xab}, 32)
	ct, _ := EncryptCBC(c, iv, pt)
	if bytes.Equal(ct[:16], ct[16:]) {
		t.Fatal("CBC must not encrypt equal blocks identically")
	}
}

func TestCBCWithDES(t *testing.T) {
	c, err := des.NewTripleCipher(make([]byte, 24))
	if err != nil {
		t.Fatal(err)
	}
	iv := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	pt := Pad([]byte("3DES-CBC is the paper's reference bulk cipher"), 8)
	ct, err := EncryptCBC(c, iv, pt)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecryptCBC(c, iv, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, pt) {
		t.Fatal("3DES-CBC roundtrip failed")
	}
}

// TestCBCIntoMatchesAllocatingAndInPlace checks a reused CBCCrypter
// against the allocating EncryptCBC/DecryptCBC, out of place and with
// dst aliasing src exactly, across calls on the same scratch.
func TestCBCIntoMatchesAllocatingAndInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, c := range []Block{mustAES(t, make([]byte, 16)), mustTripleDES(t)} {
		bs := c.BlockSize()
		iv := make([]byte, bs)
		rng.Read(iv)
		cbc := NewCBCCrypter(c)
		for _, blocks := range []int{1, 2, 7} {
			src := make([]byte, bs*blocks)
			rng.Read(src)
			want, err := EncryptCBC(c, iv, src)
			if err != nil {
				t.Fatal(err)
			}
			dst := make([]byte, len(src))
			if err := cbc.EncryptInto(iv, src, dst); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(dst, want) {
				t.Fatalf("EncryptInto differs from EncryptCBC (bs %d, %d blocks)", bs, blocks)
			}
			inplace := append([]byte{}, src...)
			if err := cbc.EncryptInto(iv, inplace, inplace); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(inplace, want) {
				t.Fatalf("in-place EncryptInto differs (bs %d, %d blocks)", bs, blocks)
			}
			back, err := DecryptCBC(c, iv, want)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(back, src) {
				t.Fatal("DecryptCBC did not invert EncryptCBC")
			}
			dback := make([]byte, len(want))
			if err := cbc.DecryptInto(iv, want, dback); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(dback, src) {
				t.Fatalf("DecryptInto differs (bs %d, %d blocks)", bs, blocks)
			}
			ip := append([]byte{}, want...)
			if err := cbc.DecryptInto(iv, ip, ip); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ip, src) {
				t.Fatalf("in-place DecryptInto differs (bs %d, %d blocks)", bs, blocks)
			}
		}
		if n := testing.AllocsPerRun(20, func() {
			cbc.EncryptInto(iv, iv, iv) //nolint:errcheck
			cbc.DecryptInto(iv, iv, iv) //nolint:errcheck
		}); n != 0 {
			t.Errorf("CBCCrypter (bs %d) allocates %v times, want 0", bs, n)
		}
	}
}

// desPair returns this repository's DES or 3DES for an 8-, 16- or 24-byte
// key, and crypto/des's cipher for the same key (which takes 24-byte keys
// only, so keying option 2 repeats k1 as k3).
func desPair(t testing.TB, key []byte) (Block, stdcipher.Block) {
	t.Helper()
	var ours Block
	var ref stdcipher.Block
	var err error
	if len(key) == des.KeySize {
		if ours, err = des.NewCipher(key); err == nil {
			ref, err = stddes.NewCipher(key)
		}
	} else if ours, err = des.NewTripleCipher(key); err == nil {
		ref, err = stddes.NewTripleDESCipher(append(append([]byte(nil), key...), key[:24-len(key)]...))
	}
	if err != nil {
		t.Fatal(err)
	}
	return ours, ref
}

// checkCBCDecrypt compares DecryptInto with crypto/cipher's CBC decrypter
// on ct, out of place and in place, and checks that neither the IV nor,
// out of place, the ciphertext is written.
func checkCBCDecrypt(t testing.TB, cbc *CBCCrypter, ref stdcipher.Block, iv, ct []byte) {
	t.Helper()
	want := make([]byte, len(ct))
	stdcipher.NewCBCDecrypter(ref, iv).CryptBlocks(want, ct)
	ivWas, ctWas := append([]byte(nil), iv...), append([]byte(nil), ct...)
	got := make([]byte, len(ct))
	if err := cbc.DecryptInto(iv, ct, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%d blocks: DecryptInto = %x, crypto/cipher %x", len(ct)/8, got, want)
	}
	if !bytes.Equal(ct, ctWas) {
		t.Fatalf("%d blocks: out-of-place DecryptInto wrote its source", len(ct)/8)
	}
	inPlace := append([]byte(nil), ct...)
	if err := cbc.DecryptInto(iv, inPlace, inPlace); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(inPlace, want) {
		t.Fatalf("%d blocks: in-place DecryptInto = %x, crypto/cipher %x", len(ct)/8, inPlace, want)
	}
	if !bytes.Equal(iv, ivWas) {
		t.Fatalf("%d blocks: DecryptInto changed the IV to %x", len(ct)/8, iv)
	}
}

// TestCBCDecryptAgainstStdlib runs the DES and 3DES decrypt path, two
// blocks per step with a single block left over on odd counts, against
// crypto/cipher + crypto/des for every count from 0 to 33 blocks, on one
// reused CBCCrypter per key.
func TestCBCDecryptAgainstStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, klen := range []int{8, 16, 24} {
		key := make([]byte, klen)
		rng.Read(key)
		ours, ref := desPair(t, key)
		cbc := NewCBCCrypter(ours)
		for blocks := 0; blocks <= 33; blocks++ {
			iv := make([]byte, des.BlockSize)
			ct := make([]byte, blocks*des.BlockSize)
			rng.Read(iv)
			rng.Read(ct)
			checkCBCDecrypt(t, cbc, ref, iv, ct)
		}
		iv, ct := make([]byte, des.BlockSize), make([]byte, 5*des.BlockSize)
		if n := testing.AllocsPerRun(20, func() {
			cbc.DecryptInto(iv, ct, ct) //nolint:errcheck
		}); n != 0 {
			t.Errorf("%d-byte key: 5-block DecryptInto allocates %v times, want 0", klen, n)
		}
	}
}

// FuzzCBCDecryptAgainstStdlib is TestCBCDecryptAgainstStdlib on fuzzed
// input. The first byte picks the key size (8, 16 or 24 bytes); the next
// bytes are the key, the IV and then the ciphertext, cut to whole blocks.
func FuzzCBCDecryptAgainstStdlib(f *testing.F) {
	f.Add([]byte{0})
	f.Add(append([]byte{1}, bytes.Repeat([]byte{0xa5}, 16+8+3*8)...))
	f.Add(append([]byte{2}, bytes.Repeat([]byte{0x3c}, 24+8+8*8)...))
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		klen := 8 * (1 + int(in[0]%3))
		var head [24 + des.BlockSize]byte
		rest := in[1:]
		rest = rest[copy(head[:klen+des.BlockSize], rest):]
		key, iv := head[:klen], head[klen:klen+des.BlockSize]
		ct := rest[:len(rest)/des.BlockSize*des.BlockSize]
		ours, ref := desPair(t, key)
		checkCBCDecrypt(t, NewCBCCrypter(ours), ref, iv, ct)
	})
}

func TestCBCIntoShortDst(t *testing.T) {
	cbc := NewCBCCrypter(mustAES(t, make([]byte, 16)))
	iv := make([]byte, 16)
	src := make([]byte, 32)
	if err := cbc.EncryptInto(iv, src, make([]byte, 16)); err == nil {
		t.Fatal("EncryptInto accepted short dst")
	}
	if err := cbc.DecryptInto(iv, src, make([]byte, 16)); err == nil {
		t.Fatal("DecryptInto accepted short dst")
	}
}

func TestCBCErrors(t *testing.T) {
	c := mustAES(t, make([]byte, 16))
	if _, err := EncryptCBC(c, make([]byte, 8), make([]byte, 16)); err == nil {
		t.Error("accepted short IV")
	}
	if _, err := EncryptCBC(c, make([]byte, 16), make([]byte, 15)); err == nil {
		t.Error("accepted unaligned input")
	}
	if _, err := DecryptCBC(c, make([]byte, 16), make([]byte, 15)); err == nil {
		t.Error("decrypt accepted unaligned input")
	}
	if _, err := EncryptECB(c, make([]byte, 15)); err == nil {
		t.Error("ECB accepted unaligned input")
	}
}

func TestCTRAgainstStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 50; i++ {
		key := make([]byte, 16)
		iv := make([]byte, 16)
		pt := make([]byte, rng.Intn(200))
		rng.Read(key)
		rng.Read(iv)
		rng.Read(pt)

		ours := mustAES(t, key)
		ctr, err := NewCTR(ours, iv)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(pt))
		ctr.XORKeyStream(got, pt)

		ref, _ := stdaes.NewCipher(key)
		want := make([]byte, len(pt))
		stdcipher.NewCTR(ref, iv).XORKeyStream(want, pt)
		if !bytes.Equal(got, want) {
			t.Fatalf("CTR mismatch with stdlib (iter %d, len %d)", i, len(pt))
		}
	}
}

func TestCTRCounterWraps(t *testing.T) {
	c := mustAES(t, make([]byte, 16))
	iv := bytes.Repeat([]byte{0xff}, 16) // next increment wraps to zero
	ctr, _ := NewCTR(c, iv)
	buf := make([]byte, 48)
	ctr.XORKeyStream(buf, buf)

	ref, _ := stdaes.NewCipher(make([]byte, 16))
	want := make([]byte, 48)
	stdcipher.NewCTR(ref, iv).XORKeyStream(want, make([]byte, 48))
	if !bytes.Equal(buf, want) {
		t.Fatal("CTR wraparound mismatch with stdlib")
	}
}

func TestCTRSplitStream(t *testing.T) {
	c := mustAES(t, make([]byte, 16))
	iv := make([]byte, 16)
	one, _ := NewCTR(c, iv)
	two, _ := NewCTR(c, iv)
	msg := make([]byte, 100)
	a := make([]byte, 100)
	one.XORKeyStream(a, msg)
	b := make([]byte, 0, 100)
	tmp := make([]byte, 9)
	for off := 0; off < 100; {
		n := 9
		if off+n > 100 {
			n = 100 - off
		}
		two.XORKeyStream(tmp[:n], msg[off:off+n])
		b = append(b, tmp[:n]...)
		off += n
	}
	if !bytes.Equal(a, b) {
		t.Fatal("split CTR keystream differs")
	}
}

func TestNewCTRBadIV(t *testing.T) {
	c := mustAES(t, make([]byte, 16))
	if _, err := NewCTR(c, make([]byte, 8)); err == nil {
		t.Fatal("NewCTR accepted wrong-size IV")
	}
}
