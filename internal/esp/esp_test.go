package esp

import (
	"bytes"
	"hash"
	"testing"

	"repro/internal/crypto/des"
	"repro/internal/crypto/prng"
	"repro/internal/crypto/sha1"
)

func newTestSA(t testing.TB, spi uint32, seed string) *SA {
	t.Helper()
	block, err := des.NewTripleCipher(bytes.Repeat([]byte{0x42}, 24))
	if err != nil {
		t.Fatal(err)
	}
	sa, err := NewSA(spi, block, func() hash.Hash { return sha1.New() },
		[]byte("esp-mac-key-20-bytes"), prng.NewDRBG([]byte(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return sa
}

// pairSA returns sender and receiver SAs with identical keys.
func pairSA(t testing.TB) (*SA, *SA) {
	return newTestSA(t, 0x1001, "tx"), newTestSA(t, 0x1001, "rx")
}

func TestSealOpenRoundtrip(t *testing.T) {
	tx, rx := pairSA(t)
	for _, msg := range [][]byte{
		{},
		[]byte("ip datagram"),
		bytes.Repeat([]byte{7}, 1400),
	} {
		pkt, err := tx.Seal(msg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rx.Open(pkt)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("roundtrip mismatch (%d bytes)", len(msg))
		}
	}
}

func TestSequenceNumbersIncrease(t *testing.T) {
	tx, _ := pairSA(t)
	tx.Seal([]byte("a")) //nolint:errcheck
	tx.Seal([]byte("b")) //nolint:errcheck
	if tx.SendSeq() != 2 {
		t.Fatalf("SendSeq = %d, want 2", tx.SendSeq())
	}
}

func TestReplayRejected(t *testing.T) {
	tx, rx := pairSA(t)
	pkt, _ := tx.Seal([]byte("once"))
	if _, err := rx.Open(pkt); err != nil {
		t.Fatal(err)
	}
	if _, err := rx.Open(pkt); err != ErrReplay {
		t.Fatalf("replay: want ErrReplay, got %v", err)
	}
}

func TestOutOfOrderWithinWindowAccepted(t *testing.T) {
	tx, rx := pairSA(t)
	var pkts [][]byte
	for i := 0; i < 5; i++ {
		p, _ := tx.Seal([]byte{byte(i)})
		pkts = append(pkts, p)
	}
	// Deliver 0, 3, 1, 4, 2 — all within the window, all fresh.
	for _, i := range []int{0, 3, 1, 4, 2} {
		if _, err := rx.Open(pkts[i]); err != nil {
			t.Fatalf("packet %d rejected: %v", i, err)
		}
	}
	// Now each is a replay.
	for i := range pkts {
		if _, err := rx.Open(pkts[i]); err != ErrReplay {
			t.Fatalf("packet %d re-delivery: want ErrReplay, got %v", i, err)
		}
	}
}

func TestStaleBeyondWindowRejected(t *testing.T) {
	tx, rx := pairSA(t)
	first, _ := tx.Seal([]byte("first"))
	// Advance the sender far beyond the window.
	var last []byte
	for i := 0; i < windowSize+5; i++ {
		last, _ = tx.Seal([]byte("advance"))
	}
	if _, err := rx.Open(last); err != nil {
		t.Fatal(err)
	}
	if _, err := rx.Open(first); err != ErrReplay {
		t.Fatalf("stale packet: want ErrReplay, got %v", err)
	}
}

func TestTamperDetected(t *testing.T) {
	tx, rx := pairSA(t)
	pkt, _ := tx.Seal([]byte("integrity"))
	for _, idx := range []int{0, 5, 9, len(pkt) - 1} {
		bad := append([]byte{}, pkt...)
		bad[idx] ^= 0x40
		_, err := rx.Open(bad)
		if err == nil {
			t.Fatalf("tamper at byte %d accepted", idx)
		}
	}
}

func TestWrongSPI(t *testing.T) {
	tx, _ := pairSA(t)
	other := newTestSA(t, 0x2002, "rx")
	pkt, _ := tx.Seal([]byte("spi"))
	if _, err := other.Open(pkt); err != ErrWrongSPI {
		t.Fatalf("want ErrWrongSPI, got %v", err)
	}
}

func TestTooShort(t *testing.T) {
	_, rx := pairSA(t)
	if _, err := rx.Open(make([]byte, 10)); err != ErrTooShort {
		t.Fatalf("want ErrTooShort, got %v", err)
	}
}

func TestNewSAValidation(t *testing.T) {
	block, _ := des.NewTripleCipher(make([]byte, 24))
	newH := func() hash.Hash { return sha1.New() }
	rng := prng.NewDRBG(nil)
	if _, err := NewSA(1, nil, newH, []byte("k"), rng); err == nil {
		t.Error("accepted nil block")
	}
	if _, err := NewSA(1, block, nil, []byte("k"), rng); err == nil {
		t.Error("accepted nil MAC")
	}
	if _, err := NewSA(1, block, newH, nil, rng); err == nil {
		t.Error("accepted empty MAC key")
	}
	if _, err := NewSA(1, block, newH, []byte("k"), nil); err == nil {
		t.Error("accepted nil rng")
	}
}

func TestUniqueIVs(t *testing.T) {
	tx, _ := pairSA(t)
	seen := map[string]bool{}
	for i := 0; i < 50; i++ {
		pkt, err := tx.Seal([]byte("payload"))
		if err != nil {
			t.Fatal(err)
		}
		iv := string(pkt[8 : 8+8])
		if seen[iv] {
			t.Fatal("IV repeated")
		}
		seen[iv] = true
	}
}

// TestLifetimeLimits: an SA past its byte or packet lifetime refuses to
// seal until rekeyed — the IPSec rekey discipline.
func TestLifetimeLimits(t *testing.T) {
	tx, _ := pairSA(t)
	tx.SetLifetime(100, 0)
	if _, err := tx.Seal(make([]byte, 60)); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Seal(make([]byte, 60)); err != nil {
		t.Fatal(err) // crosses 100 bytes during this packet; allowed
	}
	if !tx.LifetimeExhausted() {
		t.Fatal("byte lifetime should be exhausted")
	}
	if _, err := tx.Seal([]byte("more")); err != ErrLifetimeExceeded {
		t.Fatalf("want ErrLifetimeExceeded, got %v", err)
	}

	tx2 := newTestSA(t, 0x1001, "tx")
	tx2.SetLifetime(0, 3)
	for i := 0; i < 3; i++ {
		if _, err := tx2.Seal([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx2.Seal([]byte("x")); err != ErrLifetimeExceeded {
		t.Fatalf("want ErrLifetimeExceeded after 3 packets, got %v", err)
	}
	// A fresh SA (rekey) continues.
	tx3 := newTestSA(t, 0x1001, "tx-rekeyed")
	if _, err := tx3.Seal([]byte("x")); err != nil {
		t.Fatalf("rekeyed SA failed: %v", err)
	}
}

func TestUnlimitedLifetimeByDefault(t *testing.T) {
	tx, _ := pairSA(t)
	for i := 0; i < 200; i++ {
		if _, err := tx.Seal(make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if tx.LifetimeExhausted() {
		t.Fatal("default SA should be unlimited")
	}
}

// TestSealOpenAllocs pins the per-packet allocations: Seal builds the
// packet and Open the plaintext, one allocation each. The SA's CBC
// scratch and keyed HMAC are built once by NewSA.
func TestSealOpenAllocs(t *testing.T) {
	tx, rx := pairSA(t)
	payload := bytes.Repeat([]byte{7}, 1024)
	const runs = 50
	pkts := make([][]byte, 0, runs+1)
	if n := testing.AllocsPerRun(runs, func() {
		pkt, err := tx.Seal(payload)
		if err != nil {
			t.Fatal(err)
		}
		pkts = append(pkts, pkt)
	}); n != 1 {
		t.Errorf("Seal allocates %v times, want 1", n)
	}
	next := 0
	if n := testing.AllocsPerRun(runs, func() {
		if _, err := rx.Open(pkts[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}); n != 1 {
		t.Errorf("Open allocates %v times, want 1", n)
	}
}

// BenchmarkESPSealOpen is the ESP record rung: one 1 KiB packet sealed
// and opened per op under 3DES-CBC and HMAC-SHA-1-96.
func BenchmarkESPSealOpen(b *testing.B) {
	tx, rx := pairSA(b)
	payload := make([]byte, 1024)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pkt, err := tx.Seal(payload)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rx.Open(pkt); err != nil {
			b.Fatal(err)
		}
	}
}
