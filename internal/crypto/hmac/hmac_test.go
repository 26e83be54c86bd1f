package hmac

import (
	"bytes"
	stdhmac "crypto/hmac"
	stdmd5 "crypto/md5"
	stdsha1 "crypto/sha1"
	"encoding/hex"
	"hash"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/crypto/md5"
	"repro/internal/crypto/sha1"
)

func ourSHA1() hash.Hash { return sha1.New() }
func ourMD5() hash.Hash  { return md5.New() }

// RFC 2202 test cases (a selection covering short, long and block-size
// boundary keys).
func TestRFC2202SHA1(t *testing.T) {
	cases := []struct {
		key, data []byte
		want      string
	}{
		{bytes.Repeat([]byte{0x0b}, 20), []byte("Hi There"),
			"b617318655057264e28bc0b6fb378c8ef146be00"},
		{[]byte("Jefe"), []byte("what do ya want for nothing?"),
			"effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"},
		{bytes.Repeat([]byte{0xaa}, 80), []byte("Test Using Larger Than Block-Size Key - Hash Key First"),
			"aa4ae5e15272d00e95705637ce8a3b55ed402112"},
	}
	for i, c := range cases {
		h := New(ourSHA1, c.key)
		h.Write(c.data)
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("case %d: got %s, want %s", i, got, c.want)
		}
	}
}

func TestRFC2202MD5(t *testing.T) {
	cases := []struct {
		key, data []byte
		want      string
	}{
		{bytes.Repeat([]byte{0x0b}, 16), []byte("Hi There"),
			"9294727a3638bb1c13f48ef8158bfc9d"},
		{[]byte("Jefe"), []byte("what do ya want for nothing?"),
			"750c783e6ab0b503eaa86e310a5db738"},
	}
	for i, c := range cases {
		h := New(ourMD5, c.key)
		h.Write(c.data)
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("case %d: got %s, want %s", i, got, c.want)
		}
	}
}

func TestAgainstStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		key := make([]byte, rng.Intn(100))
		msg := make([]byte, rng.Intn(300))
		rng.Read(key)
		rng.Read(msg)

		ours := New(ourSHA1, key)
		ref := stdhmac.New(stdsha1.New, key)
		ours.Write(msg)
		ref.Write(msg)
		if !bytes.Equal(ours.Sum(nil), ref.Sum(nil)) {
			t.Fatalf("sha1 key %x: mismatch with stdlib", key)
		}

		oursM := New(ourMD5, key)
		refM := stdhmac.New(stdmd5.New, key)
		oursM.Write(msg)
		refM.Write(msg)
		if !bytes.Equal(oursM.Sum(nil), refM.Sum(nil)) {
			t.Fatalf("md5 key %x: mismatch with stdlib", key)
		}
	}
}

// TestKeySeparation: different keys yield different MACs (property test).
func TestKeySeparation(t *testing.T) {
	f := func(k1, k2 [8]byte, msg []byte) bool {
		if k1 == k2 {
			return true
		}
		h1 := New(ourSHA1, k1[:])
		h2 := New(ourSHA1, k2[:])
		h1.Write(msg)
		h2.Write(msg)
		return !bytes.Equal(h1.Sum(nil), h2.Sum(nil))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestMessageSeparation: different messages yield different MACs.
func TestMessageSeparation(t *testing.T) {
	f := func(key [16]byte, m1, m2 []byte) bool {
		if bytes.Equal(m1, m2) {
			return true
		}
		h1 := New(ourSHA1, key[:])
		h2 := New(ourSHA1, key[:])
		h1.Write(m1)
		h2.Write(m2)
		return !bytes.Equal(h1.Sum(nil), h2.Sum(nil))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReset(t *testing.T) {
	h := New(ourSHA1, []byte("key"))
	h.Write([]byte("junk"))
	h.Reset()
	h.Write([]byte("msg"))
	a := h.Sum(nil)
	h2 := New(ourSHA1, []byte("key"))
	h2.Write([]byte("msg"))
	if !bytes.Equal(a, h2.Sum(nil)) {
		t.Fatal("Reset did not restore keyed state")
	}
}

func TestEqual(t *testing.T) {
	if !Equal([]byte{1, 2, 3}, []byte{1, 2, 3}) {
		t.Error("Equal rejected identical MACs")
	}
	if Equal([]byte{1, 2, 3}, []byte{1, 2, 4}) {
		t.Error("Equal accepted different MACs")
	}
	if Equal([]byte{1, 2}, []byte{1, 2, 3}) {
		t.Error("Equal accepted different lengths")
	}
}

// FuzzAgainstStdlib diffs HMAC-SHA-1 and HMAC-MD5 against crypto/hmac
// over split writes, a Reset mid-stream, repeated Sums, writes after a
// Sum and a re-key. The seed corpus covers every key length 0-130, so
// keys shorter than, equal to and longer than the block size all run
// under plain go test.
func FuzzAgainstStdlib(f *testing.F) {
	for n := 0; n <= 130; n++ {
		f.Add(uint8(n), []byte("what do ya want for nothing?"), uint8(n))
	}
	f.Add(uint8(64), bytes.Repeat([]byte{0xaa}, 200), uint8(64))
	f.Fuzz(func(t *testing.T, keyLen uint8, msg []byte, split uint8) {
		key := make([]byte, int(keyLen)%131)
		for i := range key {
			key[i] = byte(i*7) ^ keyLen
		}
		cut := int(split) % (len(msg) + 1)
		rekey := msg[:min(len(msg), 130)]
		hashes := []struct {
			name      string
			ours, ref func() hash.Hash
		}{
			{"sha1", ourSHA1, stdsha1.New},
			{"md5", ourMD5, stdmd5.New},
		}
		for _, hh := range hashes {
			check := func(step string, got, want []byte) {
				t.Helper()
				if !bytes.Equal(got, want) {
					t.Fatalf("%s key %d bytes, msg %d bytes, %s: got %x, want %x",
						hh.name, len(key), len(msg), step, got, want)
				}
			}
			h := New(hh.ours, key)
			ref := stdhmac.New(hh.ref, key)
			h.Write(msg[cut:])
			h.Reset()
			h.Write(msg[:cut])
			h.Write(msg[cut:])
			ref.Write(msg)
			want := ref.Sum(nil)
			check("split write after Reset", h.Sum(nil), want)
			check("repeated Sum", h.Sum(nil), want)

			h.Write(msg[:cut])
			ref.Write(msg[:cut])
			check("write after Sum", h.Sum([]byte("prefix"))[6:], ref.Sum(nil))

			h.SetKey(rekey)
			ref = stdhmac.New(hh.ref, rekey)
			h.Write(msg)
			ref.Write(msg)
			check("re-key", h.Sum(nil), ref.Sum(nil))
		}
	})
}

// TestHMACAllocs pins the keyed path at zero allocations: a MAC into a
// buffer with room, and a re-key, short key or long.
func TestHMACAllocs(t *testing.T) {
	for _, hh := range []struct {
		name string
		h    func() hash.Hash
	}{{"sha1", ourSHA1}, {"md5", ourMD5}} {
		h := New(hh.h, []byte("key"))
		msg := make([]byte, 64)
		buf := make([]byte, 0, h.Size())
		if n := testing.AllocsPerRun(100, func() {
			h.Reset()
			h.Write(msg)
			buf = h.Sum(buf[:0])
		}); n != 0 {
			t.Errorf("%s Reset+Write+Sum: %v allocs, want 0", hh.name, n)
		}
		short, long := make([]byte, 20), make([]byte, 100)
		if n := testing.AllocsPerRun(100, func() {
			h.SetKey(short)
			h.SetKey(long)
		}); n != 0 {
			t.Errorf("%s SetKey: %v allocs, want 0", hh.name, n)
		}
	}
}

func TestNewRejectsForeignHash(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a hash that cannot copy its state")
		}
	}()
	New(stdsha1.New, nil)
}

// BenchmarkHMACSHA1 is the keyed-hash rung: one MAC, key already set,
// over a record-sized and a bulk-sized message.
func BenchmarkHMACSHA1(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"64B", 64}, {"1KiB", 1024}} {
		b.Run(size.name, func(b *testing.B) {
			h := New(ourSHA1, make([]byte, 20))
			msg := make([]byte, size.n)
			buf := make([]byte, 0, h.Size())
			b.SetBytes(int64(size.n))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h.Reset()
				h.Write(msg)
				buf = h.Sum(buf[:0])
			}
		})
	}
}
