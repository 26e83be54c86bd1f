package des

import (
	"bytes"
	"testing"

	"repro/internal/crypto/bitutil"
	"repro/internal/crypto/prng"
)

// referenceFeistel is the expand/substitute/permute pipeline of FIPS
// 46-3; the round function must match it bit for bit.
func referenceFeistel(right uint32, subkey uint64) uint32 {
	expanded := bitutil.PermuteBlock(uint64(right), expansion, 32)
	x := expanded ^ subkey
	var out uint32
	for box := 0; box < 8; box++ {
		six := uint8(x >> (uint(7-box) * 6) & 0x3f)
		out = out<<4 | uint32(SBox(box, six))
	}
	return uint32(bitutil.PermuteBlock(uint64(out), roundPermutation, 32))
}

func TestFeistelFastMatchesReference(t *testing.T) {
	rng := prng.NewDRBG([]byte("feistel-equivalence"))
	check := func(r uint32, k uint64) {
		t.Helper()
		// Feistel packs k and runs the cipher's round function on r
		// rotated as the rounds hold it.
		if got, want := Feistel(r, k), referenceFeistel(r, k); got != want {
			t.Fatalf("Feistel(%#x, %#x) = %#x, want %#x", r, k, got, want)
		}
		if got := packKey(k).unpack(); got != k {
			t.Fatalf("packKey(%#x).unpack() = %#x", k, got)
		}
	}
	for i := 0; i < 5000; i++ {
		check(uint32(bitutil.Load64(rng.Bytes(8))), bitutil.Load64(rng.Bytes(8))&(1<<48-1))
	}
	// Edge values.
	for _, r := range []uint32{0, 0xffffffff, 0x80000001} {
		for _, k := range []uint64{0, 1<<48 - 1} {
			check(r, k)
		}
	}
}

// TestPermute64MatchesReference checks the delta-swap IP and FP against
// the FIPS 46-3 tables applied bit by bit, and that FP undoes IP.
func TestPermute64MatchesReference(t *testing.T) {
	rng := prng.NewDRBG([]byte("permute-equivalence"))
	blocks := []uint64{0, ^uint64(0), 1, 1 << 63}
	for i := 0; i < 64; i++ {
		blocks = append(blocks, 1<<uint(i))
	}
	for i := 0; i < 5000; i++ {
		blocks = append(blocks, bitutil.Load64(rng.Bytes(8)))
	}
	for _, b := range blocks {
		if got, want := InitialPermute(b), bitutil.PermuteBlock(b, initialPermutation, 64); got != want {
			t.Fatalf("IP(%#x) = %#x, want %#x", b, got, want)
		}
		if got, want := permuteFinal(b), bitutil.PermuteBlock(b, finalPermutation, 64); got != want {
			t.Fatalf("FP(%#x) = %#x, want %#x", b, got, want)
		}
		if got := permuteFinal(InitialPermute(b)); got != b {
			t.Fatalf("FP(IP(%#x)) = %#x", b, got)
		}
	}
}

// referenceSubkeys is the FIPS 46-3 key schedule bit by bit: PC1, then
// per round the C/D rotation and PC2.
func referenceSubkeys(key []byte) (ks [16]uint64) {
	cd := bitutil.PermuteBlock(bitutil.Load64(key), permutedChoice1, 64)
	c, d := uint32(cd>>28), uint32(cd&(1<<28-1))
	for i, shift := range keyShifts {
		c, d = bitutil.RotateLeft28(c, shift), bitutil.RotateLeft28(d, shift)
		ks[i] = bitutil.PermuteBlock(uint64(c)<<28|uint64(d), permutedChoice2, 56)
	}
	return ks
}

// TestKeyScheduleMatchesReference checks the table-driven PC1/PC2 against
// the bitwise schedule for random keys and every single-bit key.
func TestKeyScheduleMatchesReference(t *testing.T) {
	rng := prng.NewDRBG([]byte("key-schedule-equivalence"))
	var keys [][]byte
	for i := 0; i < 64; i++ {
		key := make([]byte, KeySize)
		key[i/8] = 0x80 >> uint(i%8)
		keys = append(keys, key)
	}
	for i := 0; i < 500; i++ {
		keys = append(keys, rng.Bytes(KeySize))
	}
	for _, key := range keys {
		c, err := NewCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range referenceSubkeys(key) {
			if got := c.Subkey(i); got != want {
				t.Fatalf("key %x: Subkey(%d) = %012x, want %012x", key, i, got, want)
			}
		}
	}
}

// TestDecryptBlocksMatchesDecrypt pins the two-lane pass to the one-lane
// one: DecryptBlocks over n random blocks, out of place and in place,
// equals Decrypt block by block, for DES and both 3DES keying options.
func TestDecryptBlocksMatchesDecrypt(t *testing.T) {
	rng := prng.NewDRBG([]byte("two-lane-equivalence"))
	for _, klen := range []int{8, 16, 24} {
		key := rng.Bytes(klen)
		var c interface {
			Decrypt(dst, src []byte)
			DecryptBlocks(dst, src []byte)
		}
		var err error
		if klen == KeySize {
			c, err = NewCipher(key)
		} else {
			c, err = NewTripleCipher(key)
		}
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n <= 9; n++ {
			src := rng.Bytes(n * BlockSize)
			want := make([]byte, len(src))
			for i := 0; i < len(src); i += BlockSize {
				c.Decrypt(want[i:], src[i:])
			}
			got := make([]byte, len(src))
			c.DecryptBlocks(got, src)
			if !bytes.Equal(got, want) {
				t.Fatalf("%d-byte key, %d blocks: DecryptBlocks = %x, Decrypt %x", klen, n, got, want)
			}
			c.DecryptBlocks(src, src)
			if !bytes.Equal(src, want) {
				t.Fatalf("%d-byte key, %d blocks: in-place DecryptBlocks = %x, Decrypt %x", klen, n, src, want)
			}
		}
	}
}

func BenchmarkDESBlock(b *testing.B) {
	c, err := NewCipher([]byte{0x13, 0x34, 0x57, 0x79, 0x9B, 0xBC, 0xDF, 0xF1})
	if err != nil {
		b.Fatal(err)
	}
	src := []byte{0x01, 0x23, 0x45, 0x67, 0x89, 0xAB, 0xCD, 0xEF}
	dst := make([]byte, 8)
	b.SetBytes(BlockSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Encrypt(dst, src)
	}
}

func Benchmark3DESBlock(b *testing.B) {
	c, err := NewTripleCipher(make([]byte, 24))
	if err != nil {
		b.Fatal(err)
	}
	src := make([]byte, 8)
	dst := make([]byte, 8)
	b.SetBytes(BlockSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Encrypt(dst, src)
	}
}

// BenchmarkNewTripleCipher is the key-schedule rung: three DES key
// schedules and the cipher's one allocation, paid per 3DES key.
func BenchmarkNewTripleCipher(b *testing.B) {
	key := []byte("0123456789abcdefghijklmn")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewTripleCipher(key); err != nil {
			b.Fatal(err)
		}
	}
}
