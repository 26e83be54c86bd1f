package rc4

import (
	"bytes"
	stdrc4 "crypto/rc4"
	"encoding/hex"
	"math/rand"
	"testing"
	"testing/quick"
)

// Published RC4 keystream vectors (from the original posting / RFC 6229
// style short checks).
var keystreamVectors = []struct {
	key  string
	want string
}{
	{"0102030405", "b2396305f03dc027"},
	{"01020304050607", "293f02d47f37c9b6"},
	{"0102030405060708", "97ab8a1bf0afb961"},
	{"0102030405060708090a0b0c0d0e0f10", "9ac7cc9a609d1ef7"},
}

func TestKeystreamVectors(t *testing.T) {
	for _, v := range keystreamVectors {
		key, _ := hex.DecodeString(v.key)
		c, err := NewCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]byte, 8)
		c.Keystream(out)
		if hex.EncodeToString(out) != v.want {
			t.Errorf("key %s: keystream = %x, want %s", v.key, out, v.want)
		}
	}
}

func TestAgainstStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		key := make([]byte, 1+rng.Intn(32))
		msg := make([]byte, rng.Intn(500))
		rng.Read(key)
		rng.Read(msg)
		ours, err := NewCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := stdrc4.NewCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(msg))
		want := make([]byte, len(msg))
		ours.XORKeyStream(got, msg)
		ref.XORKeyStream(want, msg)
		if !bytes.Equal(got, want) {
			t.Fatalf("key %x: mismatch with stdlib", key)
		}
	}
}

// TestStreamSymmetry: encrypting twice with fresh ciphers restores the
// plaintext (stream ciphers are their own inverse).
func TestStreamSymmetry(t *testing.T) {
	f := func(key [16]byte, msg []byte) bool {
		c1, _ := NewCipher(key[:])
		c2, _ := NewCipher(key[:])
		ct := make([]byte, len(msg))
		pt := make([]byte, len(msg))
		c1.XORKeyStream(ct, msg)
		c2.XORKeyStream(pt, ct)
		return bytes.Equal(pt, msg)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSplitStream verifies keystream continuity across calls.
func TestSplitStream(t *testing.T) {
	key := []byte("wepkey40")
	c1, _ := NewCipher(key)
	c2, _ := NewCipher(key)
	msg := make([]byte, 100)
	one := make([]byte, 100)
	c1.XORKeyStream(one, msg)
	two := make([]byte, 0, 100)
	buf := make([]byte, 7)
	for off := 0; off < 100; {
		n := 7
		if off+n > 100 {
			n = 100 - off
		}
		c2.XORKeyStream(buf[:n], msg[off:off+n])
		two = append(two, buf[:n]...)
		off += n
	}
	if !bytes.Equal(one, two) {
		t.Fatal("split keystream differs from contiguous keystream")
	}
}

func TestKeySizeErrors(t *testing.T) {
	if _, err := NewCipher(nil); err == nil {
		t.Error("accepted empty key")
	}
	if _, err := NewCipher(make([]byte, 257)); err == nil {
		t.Error("accepted 257-byte key")
	}
	if KeySizeError(0).Error() == "" {
		t.Error("empty error message")
	}
}

func TestStateAccess(t *testing.T) {
	c, _ := NewCipher([]byte{1, 2, 3, 4, 5})
	s, i, j := c.State()
	if i != 0 || j != 0 {
		t.Fatalf("fresh cipher i,j = %d,%d; want 0,0", i, j)
	}
	// State must be a permutation of 0..255.
	var seen [256]bool
	for _, v := range s {
		if seen[v] {
			t.Fatal("state is not a permutation")
		}
		seen[v] = true
	}
}

// byteRC4 is the textbook RC4 over a byte permutation, the reference for
// the word-state cipher's State.
type byteRC4 struct {
	s    [256]byte
	i, j uint8
}

func newByteRC4(key []byte) *byteRC4 {
	r := new(byteRC4)
	for i := range r.s {
		r.s[i] = byte(i)
	}
	var j uint8
	for i := 0; i < 256; i++ {
		j += r.s[i] + key[i%len(key)]
		r.s[i], r.s[j] = r.s[j], r.s[i]
	}
	return r
}

func (r *byteRC4) skip(n int) {
	for ; n > 0; n-- {
		r.i++
		r.j += r.s[r.i]
		r.s[r.i], r.s[r.j] = r.s[r.j], r.s[r.i]
	}
}

// FuzzAgainstStdlib runs this cipher and crypto/rc4 side by side over msg
// in chunks whose lengths come from splits, cycling through out-of-place
// XORKeyStream, in-place XORKeyStream and Keystream. Keys of every length
// 1-256 are accepted and every other length refused, as by crypto/rc4.
// After the stream, State must equal a byte-state reference that ran the
// same number of steps.
func FuzzAgainstStdlib(f *testing.F) {
	f.Add([]byte("Key"), []byte("Plaintext"), []byte{3})
	f.Add([]byte{1, 2, 3, 4, 5}, make([]byte, 600), []byte{0, 1, 255, 7, 64})
	f.Add(bytes.Repeat([]byte{0xa5}, 256), make([]byte, 40), []byte{13, 13})
	f.Add([]byte{}, []byte{1}, []byte{})
	f.Fuzz(func(t *testing.T, key, msg, splits []byte) {
		ours, err := NewCipher(key)
		ref, refErr := stdrc4.NewCipher(key)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("key length %d: NewCipher err %v, crypto/rc4 err %v", len(key), err, refErr)
		}
		if err != nil {
			return
		}
		rest := msg
		for k := 0; len(rest) > 0; k++ {
			n := len(rest)
			if k < len(splits) {
				n = min(int(splits[k]), n)
			}
			chunk := rest[:n]
			rest = rest[n:]
			want := make([]byte, n)
			got := make([]byte, n)
			switch k % 3 {
			case 0:
				ref.XORKeyStream(want, chunk)
				ours.XORKeyStream(got, chunk)
			case 1:
				ref.XORKeyStream(want, chunk)
				copy(got, chunk)
				ours.XORKeyStream(got, got)
			case 2:
				ref.XORKeyStream(want, want)
				ours.Keystream(got)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("key %x chunk %d (%d bytes, mode %d): got %x, want %x", key, k, n, k%3, got, want)
			}
		}
		r := newByteRC4(key)
		r.skip(len(msg))
		if s, i, j := ours.State(); s != r.s || i != r.i || j != r.j {
			t.Fatalf("key %x after %d bytes: State differs from the byte-state reference", key, len(msg))
		}
	})
}

// TestXORKeyStreamShortDst: a dst shorter than src panics, even when
// its capacity would hold src, and writes nothing past its length.
func TestXORKeyStreamShortDst(t *testing.T) {
	c, _ := NewCipher([]byte("key"))
	buf := make([]byte, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("XORKeyStream accepted a dst shorter than src")
		}
		if !bytes.Equal(buf[4:], make([]byte, 4)) {
			t.Fatalf("XORKeyStream wrote past dst: %x", buf)
		}
	}()
	c.XORKeyStream(buf[:4], make([]byte, 8))
}

// TestXORKeyStreamAllocs pins the PRGA at 0 allocations, out of place and
// in place.
func TestXORKeyStreamAllocs(t *testing.T) {
	c, _ := NewCipher(make([]byte, 16))
	src, dst := make([]byte, 1024), make([]byte, 1024)
	if n := testing.AllocsPerRun(100, func() {
		c.XORKeyStream(dst, src)
		c.XORKeyStream(dst, dst)
	}); n != 0 {
		t.Fatalf("XORKeyStream allocates %.0f times per run, want 0", n)
	}
}

func BenchmarkXORKeyStream1K(b *testing.B) {
	c, _ := NewCipher(make([]byte, 16))
	buf := make([]byte, 1024)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		c.XORKeyStream(buf, buf)
	}
}
