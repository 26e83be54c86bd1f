package sha1

import (
	"bytes"
	stdsha1 "crypto/sha1"
	"encoding/hex"
	"math/rand"
	"testing"
	"testing/quick"
)

var knownVectors = []struct {
	in   string
	want string
}{
	{"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"},
	{"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"},
	{"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
		"84983e441c3bd26ebaae4aa1f95129e5e54670f1"},
	{"The quick brown fox jumps over the lazy dog",
		"2fd4e1c67a2d28fced849ee1bb76e7391b93eb12"},
}

func TestKnownVectors(t *testing.T) {
	for _, v := range knownVectors {
		got := Sum([]byte(v.in))
		if hex.EncodeToString(got[:]) != v.want {
			t.Errorf("SHA1(%q) = %x, want %s", v.in, got, v.want)
		}
	}
}

func TestMillionA(t *testing.T) {
	d := New()
	chunk := bytes.Repeat([]byte("a"), 1000)
	for i := 0; i < 1000; i++ {
		d.Write(chunk)
	}
	want := "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
	if got := hex.EncodeToString(d.Sum(nil)); got != want {
		t.Fatalf("SHA1(10^6 'a') = %s, want %s", got, want)
	}
}

// TestAgainstStdlib cross-checks random messages, including awkward chunk
// boundaries, against crypto/sha1.
func TestAgainstStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		n := rng.Intn(300)
		msg := make([]byte, n)
		rng.Read(msg)
		got := Sum(msg)
		want := stdsha1.Sum(msg)
		if got != want {
			t.Fatalf("len %d: got %x want %x", n, got, want)
		}
	}
}

// TestChunkedWrites verifies that the digest is independent of write
// partitioning.
func TestChunkedWrites(t *testing.T) {
	msg := make([]byte, 517)
	rng := rand.New(rand.NewSource(2))
	rng.Read(msg)
	whole := Sum(msg)
	d := New()
	for i := 0; i < len(msg); {
		n := rng.Intn(64) + 1
		if i+n > len(msg) {
			n = len(msg) - i
		}
		d.Write(msg[i : i+n])
		i += n
	}
	if !bytes.Equal(d.Sum(nil), whole[:]) {
		t.Fatal("chunked digest differs from one-shot digest")
	}
}

// TestSumDoesNotMutate verifies Sum leaves the running state intact.
func TestSumDoesNotMutate(t *testing.T) {
	d := New()
	d.Write([]byte("hello "))
	first := d.Sum(nil)
	second := d.Sum(nil)
	if !bytes.Equal(first, second) {
		t.Fatal("Sum mutated digest state")
	}
	d.Write([]byte("world"))
	want := Sum([]byte("hello world"))
	if !bytes.Equal(d.Sum(nil), want[:]) {
		t.Fatal("continuing after Sum gave wrong digest")
	}
}

// TestStdlibEquivalenceProperty is a testing/quick property against the
// stdlib oracle.
func TestStdlibEquivalenceProperty(t *testing.T) {
	f := func(msg []byte) bool {
		got := Sum(msg)
		want := stdsha1.Sum(msg)
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInterfaceSizes(t *testing.T) {
	d := New()
	if d.Size() != 20 || d.BlockSize() != 64 {
		t.Fatalf("Size/BlockSize = %d/%d, want 20/64", d.Size(), d.BlockSize())
	}
}

// FuzzAgainstStdlib writes data to this digest and to crypto/sha1 in
// chunks whose lengths come from splits (0-255 bytes, so chunks start and
// end on either side of block boundaries), comparing Sum after every
// chunk. Halfway through, a CopyFrom clone takes over one stream; at the
// end Reset must give back a digest that hashes data in one Write.
func FuzzAgainstStdlib(f *testing.F) {
	f.Add([]byte("abc"), []byte{1, 63, 64})
	f.Add(bytes.Repeat([]byte{0x5a}, 300), []byte{55, 9, 64, 65, 0, 7, 128})
	f.Add(make([]byte, 1000), []byte{255, 255, 1})
	f.Fuzz(func(t *testing.T, data, splits []byte) {
		ours, ref := New(), stdsha1.New()
		rest := data
		for k, s := range splits {
			n := min(int(s), len(rest))
			ours.Write(rest[:n])
			ref.Write(rest[:n])
			rest = rest[n:]
			if got, want := ours.Sum(nil), ref.Sum(nil); !bytes.Equal(got, want) {
				t.Fatalf("after chunk %d (%d bytes): got %x, want %x", k, n, got, want)
			}
			if k == len(splits)/2 {
				clone := new(Digest)
				clone.CopyFrom(ours)
				ours = clone
			}
		}
		ours.Write(rest)
		ref.Write(rest)
		if got, want := ours.Sum(nil), ref.Sum(nil); !bytes.Equal(got, want) {
			t.Fatalf("whole stream: got %x, want %x", got, want)
		}
		ours.Reset()
		ours.Write(data)
		if got, want := ours.Sum(nil), stdsha1.Sum(data); !bytes.Equal(got, want[:]) {
			t.Fatalf("after Reset: got %x, want %x", got, want)
		}
	})
}

// TestZeroAllocs pins the streaming path at 0 allocations: Write over a
// partial block, whole blocks and a tail, and Sum into a caller buffer.
func TestZeroAllocs(t *testing.T) {
	d := New()
	msg := make([]byte, 1000)
	out := make([]byte, 0, Size)
	if n := testing.AllocsPerRun(100, func() {
		d.Reset()
		d.Write(msg[:3])
		d.Write(msg)
		out = d.Sum(out[:0])
	}); n != 0 {
		t.Fatalf("Write/Sum allocate %.0f times per run, want 0", n)
	}
}

func BenchmarkSum1K(b *testing.B) {
	buf := make([]byte, 1024)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		Sum(buf)
	}
}
