package wep

import (
	"bytes"
	"testing"
	"testing/quick"
)

var testKey = []byte{1, 2, 3, 4, 5}

func TestSealOpenRoundtrip(t *testing.T) {
	e, err := NewEndpoint(testKey, IVSequential)
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range [][]byte{
		{},
		[]byte("x"),
		[]byte("an 802.11 data frame payload"),
		bytes.Repeat([]byte{0xAA}, 1500),
	} {
		frame, err := e.Seal(msg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Open(frame)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("roundtrip mismatch for %d-byte payload", len(msg))
		}
	}
}

func TestKey104(t *testing.T) {
	key := make([]byte, Key104Len)
	for i := range key {
		key[i] = byte(i)
	}
	e, err := NewEndpoint(key, IVSequential)
	if err != nil {
		t.Fatal(err)
	}
	frame, _ := e.Seal([]byte("wep-104"))
	if got, err := e.Open(frame); err != nil || !bytes.Equal(got, []byte("wep-104")) {
		t.Fatalf("wep-104 roundtrip: %v", err)
	}
}

func TestBadKeyLength(t *testing.T) {
	for _, n := range []int{0, 4, 6, 12, 14, 16} {
		if _, err := NewEndpoint(make([]byte, n), IVSequential); err == nil {
			t.Errorf("accepted %d-byte key", n)
		}
	}
}

func TestSequentialIVsIncrement(t *testing.T) {
	e, _ := NewEndpoint(testKey, IVSequential)
	f1, _ := e.Seal([]byte("a"))
	f2, _ := e.Seal([]byte("b"))
	iv1, _ := FrameIV(f1)
	iv2, _ := FrameIV(f2)
	if iv1 != [3]byte{0, 0, 0} || iv2 != [3]byte{0, 0, 1} {
		t.Fatalf("sequential IVs wrong: %v %v", iv1, iv2)
	}
}

func TestConstantIVReusesKeystream(t *testing.T) {
	e, _ := NewEndpoint(testKey, IVConstant)
	a, _ := e.Seal([]byte("AAAAAAAA"))
	b, _ := e.Seal([]byte("BBBBBBBB"))
	ivA, _ := FrameIV(a)
	ivB, _ := FrameIV(b)
	if ivA != ivB {
		t.Fatal("constant policy produced different IVs")
	}
	// XOR of ciphertexts equals XOR of plaintexts — the keystream-reuse
	// catastrophe the paper's references demonstrate.
	ca, _ := Ciphertext(a)
	cb, _ := Ciphertext(b)
	for i := 0; i < 8; i++ {
		if ca[i]^cb[i] != 'A'^'B' {
			t.Fatal("keystream reuse property does not hold")
		}
	}
}

func TestTamperDetectedByICV(t *testing.T) {
	e, _ := NewEndpoint(testKey, IVSequential)
	frame, _ := e.Seal([]byte("legitimate payload"))
	// Random corruption (not a matching CRC fixup) must be detected.
	bad := append([]byte{}, frame...)
	bad[len(bad)-1] ^= 0x01
	if _, err := e.Open(bad); err != ErrBadICV {
		t.Fatalf("tampered frame: want ErrBadICV, got %v", err)
	}
}

func TestOpenTooShort(t *testing.T) {
	e, _ := NewEndpoint(testKey, IVSequential)
	if _, err := e.Open([]byte{1, 2, 3}); err != ErrTooShort {
		t.Fatalf("want ErrTooShort, got %v", err)
	}
}

func TestWrongKeyFails(t *testing.T) {
	e1, _ := NewEndpoint(testKey, IVSequential)
	frame, _ := e1.Seal([]byte("secret"))
	other := []byte{9, 9, 9, 9, 9}
	if _, err := Open(other, frame); err == nil {
		t.Fatal("wrong key decrypted successfully")
	}
}

func TestSealWithIVDeterministic(t *testing.T) {
	iv := [3]byte{0x12, 0x34, 0x56}
	a, _ := SealWithIV(testKey, iv, []byte("deterministic"))
	b, _ := SealWithIV(testKey, iv, []byte("deterministic"))
	if !bytes.Equal(a, b) {
		t.Fatal("same IV+key+payload should give identical frames")
	}
	gotIV, _ := FrameIV(a)
	if gotIV != iv {
		t.Fatal("frame does not carry the requested IV")
	}
}

func TestRoundtripProperty(t *testing.T) {
	e, _ := NewEndpoint(testKey, IVSequential)
	f := func(payload []byte) bool {
		frame, err := e.Seal(payload)
		if err != nil {
			return false
		}
		got, err := e.Open(frame)
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIVWraps(t *testing.T) {
	e, _ := NewEndpoint(testKey, IVSequential)
	e.nextIV = 0xffffff
	f1, _ := e.Seal([]byte("last"))
	f2, _ := e.Seal([]byte("wrapped"))
	iv1, _ := FrameIV(f1)
	iv2, _ := FrameIV(f2)
	if iv1 != [3]byte{0xff, 0xff, 0xff} || iv2 != [3]byte{0, 0, 0} {
		t.Fatalf("24-bit IV wrap wrong: %v -> %v", iv1, iv2)
	}
}

func TestIsWeakIV(t *testing.T) {
	if !IsWeakIV([3]byte{3, 255, 7}, 5) {
		t.Error("(3,255,x) is weak for byte 0")
	}
	if !IsWeakIV([3]byte{7, 255, 0}, 5) {
		t.Error("(7,255,x) is weak for byte 4")
	}
	if IsWeakIV([3]byte{8, 255, 0}, 5) {
		t.Error("(8,255,x) is past a 5-byte secret")
	}
	if IsWeakIV([3]byte{3, 254, 0}, 5) {
		t.Error("second byte must be 255")
	}
	if IsWeakIV([3]byte{2, 255, 0}, 5) {
		t.Error("(2,255,x) precedes the weak class")
	}
}

// TestNextIVSkippingWeak: the filtered counter never emits a weak IV and
// still advances through the space.
func TestNextIVSkippingWeak(t *testing.T) {
	counter := uint32(0x02FF00) // just before the weak band (3,255,x)
	seen := 0
	for i := 0; i < 600; i++ {
		iv := NextIVSkippingWeak(&counter, 5)
		if IsWeakIV(iv, 5) {
			t.Fatalf("emitted weak IV %v", iv)
		}
		seen++
	}
	if seen != 600 {
		t.Fatal("counter stalled")
	}
}

// TestSealOpenAllocs pins a frame's seal and open at one allocation
// each, the sealed frame and the opened payload: the per-frame RC4 cipher
// and its IV||secret key stay on the stack.
func TestSealOpenAllocs(t *testing.T) {
	e, err := NewEndpoint(make([]byte, Key104Len), IVSequential)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 1024)
	if n := testing.AllocsPerRun(100, func() {
		frame, err := e.Seal(payload)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Open(frame); err != nil {
			t.Fatal(err)
		}
	}); n != 2 {
		t.Fatalf("Seal+Open allocates %.0f times per frame, want 2", n)
	}
}

// BenchmarkWEPSealOpen is the WEP record rung: one 1 KiB frame sealed and
// opened per op under a 104-bit key.
func BenchmarkWEPSealOpen(b *testing.B) {
	e, err := NewEndpoint(make([]byte, Key104Len), IVSequential)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 1024)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		frame, err := e.Seal(payload)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Open(frame); err != nil {
			b.Fatal(err)
		}
	}
}
