// Package prng provides the platform's random-number sources: a
// deterministic HMAC-DRBG (the firmware PRNG) and a simulated hardware
// true-random-number generator.
//
// Section 4.1 of the paper places "true random number generation ...
// provided for with a HW-based random number generator" at the foundation
// of the secure platform architecture; the TRNG model here stands in for
// that block, and the DRBG is the deterministic expansion firmware layers
// on top of it.
//
// The DRBG holds K and V inline and one HMAC-SHA-1 instance keyed with K.
// HMAC saves its key-pad digest states (see package hmac), so each
// V = HMAC(K, V) step costs two SHA-1 compressions and each re-key two
// more: a 1-byte Read costs eight, not twelve. Read, Reseed, Intn and
// Float64 allocate nothing. The output stream is the same HMAC_DRBG
// stream, byte for byte, that rebuilt the HMAC for every step
// (TestDRBGKnownAnswers pins it).
package prng

import (
	"errors"
	"hash"

	"repro/internal/crypto/hmac"
	"repro/internal/crypto/sha1"
)

// DRBG is a deterministic random bit generator in the style of the
// SP 800-90A HMAC_DRBG, built over HMAC-SHA-1. It implements io.Reader.
// It is deliberately deterministic given its seed, which keeps every
// experiment in this repository reproducible.
type DRBG struct {
	k, v    [sha1.Size]byte
	mac     *hmac.HMAC // keyed with k
	reseeds int
}

// NewDRBG creates a DRBG seeded with the given entropy input.
func NewDRBG(seed []byte) *DRBG {
	d := new(DRBG)
	for i := range d.v {
		d.v[i] = 0x01
	}
	d.mac = hmac.New(func() hash.Hash { return sha1.New() }, d.k[:])
	d.update(seed)
	return d
}

// separators holds the 0x00 and 0x01 bytes the update step appends to V.
var separators = [2]byte{0x00, 0x01}

func (d *DRBG) update(provided []byte) {
	d.rekey(0, provided)
	if len(provided) > 0 {
		d.rekey(1, provided)
	}
}

// rekey is one round of the HMAC_DRBG update:
// K = HMAC(K, V || sep || provided), then V = HMAC(K, V).
func (d *DRBG) rekey(sep int, provided []byte) {
	d.mac.Reset()
	d.mac.Write(d.v[:])
	d.mac.Write(separators[sep : sep+1])
	d.mac.Write(provided)
	d.mac.Sum(d.k[:0])
	d.mac.SetKey(d.k[:])
	d.step()
}

// step advances V = HMAC(K, V).
func (d *DRBG) step() {
	d.mac.Reset()
	d.mac.Write(d.v[:])
	d.mac.Sum(d.v[:0])
}

// Reseed mixes additional entropy into the generator state.
func (d *DRBG) Reseed(entropy []byte) {
	d.update(entropy)
	d.reseeds++
}

// Reseeds reports how many times the generator has been reseeded.
func (d *DRBG) Reseeds() int { return d.reseeds }

// Read fills p with pseudorandom bytes. It never fails and allocates
// nothing.
func (d *DRBG) Read(p []byte) (int, error) {
	for n := 0; n < len(p); {
		d.step()
		n += copy(p[n:], d.v[:])
	}
	d.update(nil)
	return len(p), nil
}

// Bytes returns n fresh pseudorandom bytes.
func (d *DRBG) Bytes(n int) []byte {
	b := make([]byte, n)
	d.Read(b) //nolint:errcheck // never fails
	return b
}

// Intn returns a uniformly distributed integer in [0, n). It panics
// unless 0 < n <= 2^31, the range of its 31-bit draws.
func (d *DRBG) Intn(n int) int {
	if n <= 0 {
		panic("prng: Intn with non-positive bound")
	}
	if uint64(n) > 1<<31 {
		panic("prng: Intn bound exceeds 2^31")
	}
	// Rejection sampling over 4-byte draws to avoid modulo bias.
	limit := (1 << 31) / n * n
	var b [4]byte
	for {
		d.Read(b[:]) //nolint:errcheck // never fails
		v := int(uint32(b[0])<<24|uint32(b[1])<<16|uint32(b[2])<<8|uint32(b[3])) & 0x7fffffff
		if v < limit {
			return v % n
		}
	}
}

// Float64 returns a uniformly distributed float in [0, 1).
func (d *DRBG) Float64() float64 {
	var b [8]byte
	d.Read(b[:]) //nolint:errcheck // never fails
	var v uint64
	for _, x := range b {
		v = v<<8 | uint64(x)
	}
	return float64(v>>11) / (1 << 53)
}

// NormFloat64 returns a normally distributed float (mean 0, stddev 1)
// using the Box-Muller transform. Used by the DPA trace noise model.
func (d *DRBG) NormFloat64() float64 {
	// Marsaglia polar method without math.Log dependency would need logs
	// anyway; use Box-Muller with the math package at the call site
	// instead. To keep this package math-free we approximate with the
	// sum of 12 uniforms (Irwin-Hall), which is accurate to ~1e-2 and
	// plenty for a leakage noise model.
	s := 0.0
	for i := 0; i < 12; i++ {
		s += d.Float64()
	}
	return s - 6.0
}

// TRNG simulates the hardware true-random-number generator of the paper's
// base architecture (Figure 6). It models an entropy source with a finite
// harvest rate and a health test, and is itself seeded so the whole
// platform stays reproducible.
type TRNG struct {
	src        *DRBG
	harvested  int
	rateBytes  int // bytes available per Harvest call
	available  int
	failStuck  bool // health-test failure injection
	stuckValue byte
}

// NewTRNG creates a simulated TRNG with the given seed and per-harvest
// byte budget (modelling the limited bandwidth of a ring-oscillator
// entropy source).
func NewTRNG(seed []byte, bytesPerHarvest int) *TRNG {
	if bytesPerHarvest <= 0 {
		bytesPerHarvest = 32
	}
	return &TRNG{src: NewDRBG(append([]byte("trng:"), seed...)), rateBytes: bytesPerHarvest}
}

// Harvest makes one harvest period's worth of entropy available.
func (t *TRNG) Harvest() { t.available += t.rateBytes }

// InjectStuckFault forces the entropy source to emit a constant value,
// simulating the environmental fault-induction attacks of Section 3.4;
// the health test in Read must then refuse to deliver entropy.
func (t *TRNG) InjectStuckFault(v byte) {
	t.failStuck = true
	t.stuckValue = v
}

// ClearFault removes an injected fault.
func (t *TRNG) ClearFault() { t.failStuck = false }

// ErrEntropyExhausted reports a Read larger than the harvested budget.
var ErrEntropyExhausted = errors.New("prng: trng entropy exhausted; call Harvest")

// ErrHealthTest reports that the entropy health test rejected the source
// output (e.g. a stuck-at fault).
var ErrHealthTest = errors.New("prng: trng health test failed")

// Read delivers up to the harvested entropy budget. It applies a
// repetition-count health test and fails closed under injected faults.
func (t *TRNG) Read(p []byte) (int, error) {
	if len(p) > t.available {
		return 0, ErrEntropyExhausted
	}
	if t.failStuck {
		// A stuck source emits a constant; the repetition-count test
		// trips and the TRNG refuses to deliver.
		return 0, ErrHealthTest
	}
	t.src.Read(p) //nolint:errcheck // never fails
	t.available -= len(p)
	t.harvested += len(p)
	return len(p), nil
}

// DeliveredBytes reports the total entropy delivered so far.
func (t *TRNG) DeliveredBytes() int { return t.harvested }
