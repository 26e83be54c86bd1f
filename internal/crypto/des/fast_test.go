package des

import (
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
