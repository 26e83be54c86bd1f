package prng

import (
	"bytes"
	"math"
	"strconv"
	"testing"
	"time"
)

func TestDRBGDeterministic(t *testing.T) {
	a := NewDRBG([]byte("seed"))
	b := NewDRBG([]byte("seed"))
	if !bytes.Equal(a.Bytes(64), b.Bytes(64)) {
		t.Fatal("same seed must give same stream")
	}
}

func TestDRBGSeedSeparation(t *testing.T) {
	a := NewDRBG([]byte("seed-1"))
	b := NewDRBG([]byte("seed-2"))
	if bytes.Equal(a.Bytes(64), b.Bytes(64)) {
		t.Fatal("different seeds must give different streams")
	}
}

func TestDRBGReseedChangesStream(t *testing.T) {
	a := NewDRBG([]byte("seed"))
	b := NewDRBG([]byte("seed"))
	a.Bytes(16)
	b.Bytes(16)
	b.Reseed([]byte("fresh entropy"))
	if bytes.Equal(a.Bytes(32), b.Bytes(32)) {
		t.Fatal("reseed must change subsequent output")
	}
	if b.Reseeds() != 1 {
		t.Fatalf("Reseeds = %d, want 1", b.Reseeds())
	}
}

// TestDRBGStreamContinuity checks that equal call sequences give equal
// output, whatever the read granularity, and that the stream does not
// repeat. Reads of different granularity need not match one big read:
// HMAC_DRBG runs its update step once per Read.
func TestDRBGStreamContinuity(t *testing.T) {
	chunked := func() []byte {
		d := NewDRBG([]byte("s"))
		var out []byte
		for len(out) < 100 {
			out = append(out, d.Bytes(min(7, 100-len(out)))...)
		}
		return out
	}
	a, b := chunked(), chunked()
	if !bytes.Equal(a, b) {
		t.Fatal("equal call sequences gave different output")
	}
	whole := NewDRBG([]byte("s")).Bytes(100)
	if bytes.Equal(whole[:50], whole[50:]) || bytes.Equal(a[:50], a[50:]) {
		t.Fatal("DRBG output repeats")
	}
}

// TestDRBGAllocs pins the generator's hot calls at zero allocations.
func TestDRBGAllocs(t *testing.T) {
	d := NewDRBG([]byte("allocs"))
	buf := make([]byte, 64)
	entropy := []byte("fresh entropy")
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"Read", func() { d.Read(buf) }},
		{"Reseed", func() { d.Reseed(entropy) }},
		{"Intn", func() { d.Intn(1000) }},
		{"Float64", func() { d.Float64() }},
	} {
		if n := testing.AllocsPerRun(100, c.f); n != 0 {
			t.Errorf("%s: %v allocs, want 0", c.name, n)
		}
	}
}

func TestIntnUniformBounds(t *testing.T) {
	d := NewDRBG([]byte("intn"))
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		v := d.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("bucket %d wildly non-uniform: %d/10000", i, c)
		}
	}
}

func TestIntnPanicsOnBadBound(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewDRBG(nil).Intn(0)
}

// TestIntnPanicsAboveRange: a bound past 2^31 cannot be met by 31-bit
// draws, so Intn must refuse it rather than reject every draw forever.
func TestIntnPanicsAboveRange(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("int cannot exceed 2^31")
	}
	n := math.MaxInt32
	n += 2
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		NewDRBG(nil).Intn(n)
	}()
	select {
	case r := <-done:
		if r == nil {
			t.Fatal("Intn(2^31+1) returned instead of panicking")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Intn(2^31+1) spun instead of panicking")
	}
	if v := NewDRBG(nil).Intn(1 << 31); v < 0 {
		t.Fatalf("Intn(2^31) = %d", v)
	}
}

func TestFloat64Range(t *testing.T) {
	d := NewDRBG([]byte("f"))
	sum := 0.0
	for i := 0; i < 5000; i++ {
		v := d.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		sum += v
	}
	mean := sum / 5000
	if mean < 0.45 || mean > 0.55 {
		t.Fatalf("Float64 mean = %v, want ≈0.5", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	d := NewDRBG([]byte("n"))
	n := 20000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := d.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if mean < -0.05 || mean > 0.05 {
		t.Fatalf("normal mean = %v, want ≈0", mean)
	}
	if variance < 0.9 || variance > 1.1 {
		t.Fatalf("normal variance = %v, want ≈1", variance)
	}
}

func TestByteFrequency(t *testing.T) {
	d := NewDRBG([]byte("freq"))
	buf := d.Bytes(1 << 16)
	var counts [256]int
	for _, b := range buf {
		counts[b]++
	}
	expect := len(buf) / 256
	for v, c := range counts {
		if c < expect/2 || c > expect*2 {
			t.Fatalf("byte %#x frequency %d far from expected %d", v, c, expect)
		}
	}
}

func TestTRNGBudget(t *testing.T) {
	tr := NewTRNG([]byte("hw"), 16)
	buf := make([]byte, 16)
	if _, err := tr.Read(buf); err != ErrEntropyExhausted {
		t.Fatalf("expected exhaustion before Harvest, got %v", err)
	}
	tr.Harvest()
	if _, err := tr.Read(buf); err != nil {
		t.Fatalf("Read after Harvest: %v", err)
	}
	if tr.DeliveredBytes() != 16 {
		t.Fatalf("DeliveredBytes = %d, want 16", tr.DeliveredBytes())
	}
	if _, err := tr.Read(buf); err != ErrEntropyExhausted {
		t.Fatal("budget should be exhausted again")
	}
}

func TestTRNGHealthTest(t *testing.T) {
	tr := NewTRNG([]byte("hw"), 64)
	tr.Harvest()
	tr.InjectStuckFault(0xAA)
	if _, err := tr.Read(make([]byte, 8)); err != ErrHealthTest {
		t.Fatalf("stuck fault not detected, err = %v", err)
	}
	tr.ClearFault()
	if _, err := tr.Read(make([]byte, 8)); err != nil {
		t.Fatalf("Read after ClearFault: %v", err)
	}
}

func TestTRNGDefaultRate(t *testing.T) {
	tr := NewTRNG(nil, 0)
	tr.Harvest()
	if _, err := tr.Read(make([]byte, 32)); err != nil {
		t.Fatalf("default harvest rate should cover 32 bytes: %v", err)
	}
}

// BenchmarkDRBGRead is the generator rung: one Read of 1 byte (a PKCS#1
// padding byte), 20 bytes (one HMAC block) and 64 bytes.
func BenchmarkDRBGRead(b *testing.B) {
	for _, n := range []int{1, 20, 64} {
		b.Run(strconv.Itoa(n)+"B", func(b *testing.B) {
			d := NewDRBG([]byte("bench"))
			buf := make([]byte, n)
			b.SetBytes(int64(n))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d.Read(buf)
			}
		})
	}
}
