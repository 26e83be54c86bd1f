package bitutil

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestXORBytes checks the word-wide XOR against a byte loop at every
// length up to three words plus a tail, with the three slices of unequal
// length, and with dst aliasing a exactly.
func TestXORBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 27; n++ {
		for _, lens := range [][3]int{{n, n, n}, {n + 3, n, n + 1}, {n, n + 5, n + 9}, {n + 2, n + 1, n}} {
			dst := make([]byte, lens[0])
			a := make([]byte, lens[1])
			b := make([]byte, lens[2])
			rng.Read(a)
			rng.Read(b)
			want := make([]byte, len(dst))
			for i := 0; i < n; i++ {
				want[i] = a[i] ^ b[i]
			}
			if got := XORBytes(dst, a, b); got != n {
				t.Fatalf("lens %v: XORBytes returned %d, want %d", lens, got, n)
			}
			if !bytes.Equal(dst, want) {
				t.Fatalf("lens %v: got %x, want %x", lens, dst, want)
			}
			inPlace := append([]byte(nil), a[:n]...)
			XORBytes(inPlace, inPlace, b)
			if !bytes.Equal(inPlace, want[:n]) {
				t.Fatalf("lens %v: in place got %x, want %x", lens, inPlace, want[:n])
			}
		}
	}
}

func TestXORBytesAllocs(t *testing.T) {
	dst, a, b := make([]byte, 16), make([]byte, 16), make([]byte, 16)
	if n := testing.AllocsPerRun(100, func() { XORBytes(dst, a, b) }); n != 0 {
		t.Fatalf("XORBytes allocates %.0f times per call, want 0", n)
	}
}
