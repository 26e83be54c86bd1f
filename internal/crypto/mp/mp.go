// Package mp provides the multi-precision modular arithmetic used by the
// public-key algorithms (RSA, Diffie-Hellman): Montgomery multiplication,
// leaky and constant-time modular exponentiation, and a simulated cycle
// meter.
//
// The paper's tamper-resistance section (3.4) singles out the timing
// attack on modular exponentiation [47] as the canonical side-channel.
// Real timing attacks exploit the data-dependent "extra reduction" at the
// end of a Montgomery multiplication. This package implements genuine
// Montgomery multiplication: one CIOS kernel over fixed-width 64-bit limbs
// that allocates nothing, with R = 2^(32·words) for a modulus of that many
// 32-bit words. Each operation is *metered* in simulated cycles of a 32-bit
// embedded CPU, so the attack in internal/attack/timing operates on exactly
// the signal the literature describes, deterministically and without
// wall-clock noise. math/big appears only at the API boundary.
package mp

import (
	"errors"
	"math/big"
	"math/bits"
)

// WordBits is the simulated embedded-CPU word size. The paper's subject
// processors (ARM7/9, SA-1100, embedded MIPS) are 32-bit machines.
const WordBits = 32

// CycleMeter accumulates simulated execution cycles.
type CycleMeter struct {
	cycles uint64
}

// Add accumulates n cycles.
func (m *CycleMeter) Add(n uint64) {
	if m != nil {
		m.cycles += n
	}
}

// Cycles returns the accumulated cycle count.
func (m *CycleMeter) Cycles() uint64 {
	if m == nil {
		return 0
	}
	return m.cycles
}

// Reset zeroes the meter.
func (m *CycleMeter) Reset() {
	if m != nil {
		m.cycles = 0
	}
}

// ErrEvenModulus reports a modulus unusable for Montgomery arithmetic.
var ErrEvenModulus = errors.New("mp: modulus must be odd and > 1")

// MontCtx holds precomputed Montgomery parameters for an odd modulus N.
// It is read-only after NewMontCtx, so goroutines may share one.
type MontCtx struct {
	N *big.Int

	// Little-endian 64-bit limbs, all len(n) long: the modulus, R^2 mod N
	// (converts into Montgomery form), R mod N (the Montgomery form of 1)
	// and plain 1 (converts out of Montgomery form).
	n, rr, one, unit []uint64
	n0               uint64 // -N^{-1} mod 2^64
	half             bool   // odd word count: the last REDC step is 32 bits
	words            int    // modulus length in simulated CPU words

	// Per-operation cycle costs, derived from the word count. A k-word
	// operand costs ~k^2 word multiplies for a multiplication, squares
	// are ~25% cheaper, and the extra reduction is a k-word subtraction.
	costMul, costSquare, costExtra uint64
}

// NewMontCtx prepares Montgomery arithmetic modulo n.
func NewMontCtx(n *big.Int) (*MontCtx, error) {
	if n.Sign() <= 0 || n.Bit(0) == 0 || n.BitLen() < 2 {
		return nil, ErrEvenModulus
	}
	words := (n.BitLen() + WordBits - 1) / WordBits
	k := (words + 1) / 2
	c := &MontCtx{N: new(big.Int).Set(n), half: words%2 == 1, words: words}
	limbs := make([]uint64, 4*k)
	c.n, c.rr, c.one, c.unit = limbs[:k], limbs[k:2*k], limbs[2*k:3*k], limbs[3*k:]
	load(c.n, n)
	rbits := uint(words * WordBits)
	r := new(big.Int).Lsh(big.NewInt(1), 2*rbits)
	load(c.rr, new(big.Int).Mod(r, n))
	load(c.one, new(big.Int).Mod(r.Rsh(r, rbits), n))
	c.unit[0] = 1
	// Newton's iteration for N^{-1} mod 2^64: an odd n0 is its own
	// inverse mod 8, and each step doubles the correct low bits.
	inv := c.n[0]
	for i := 0; i < 5; i++ {
		inv *= 2 - c.n[0]*inv
	}
	c.n0 = -inv
	w := uint64(words)
	c.costMul = 4*w*w + 6*w
	c.costSquare = 3*w*w + 6*w
	c.costExtra = 2 * w
	return c, nil
}

// Words returns the modulus length in simulated CPU words.
func (c *MontCtx) Words() int { return c.words }

// CostExtraReduction returns the simulated cycle cost of the final
// conditional subtraction — the quantity a timing attacker estimates.
func (c *MontCtx) CostExtraReduction() uint64 { return c.costExtra }

// ExpCycleCosts reports the simulated (square, multiply, extra) costs so
// the cost model in internal/cost and the attack threshold can share them.
func (c *MontCtx) ExpCycleCosts() (square, mul, extra uint64) {
	return c.costSquare, c.costMul, c.costExtra
}

// montMul sets z = x·y·R^{-1} mod N by coarsely integrated operand
// scanning (CIOS) and reports whether the final conditional subtraction,
// the "extra reduction", fired. x and y must be below N, and z must alias
// neither. The running sum lives in z plus two carry words, so the kernel
// allocates nothing and keeps no state in the context.
//
// For an odd word count the last step cancels only 32 bits, so R stays
// 2^(32·words). Any REDC with the same R adds the same multiple of N, so
// the sum before the subtraction, and with it the flag, matches the
// textbook t = x·y, u = (t + (t·(−N^{-1}) mod R)·N)/R.
func (c *MontCtx) montMul(z, x, y []uint64) bool {
	n := c.n
	k := len(n)
	z, x, y = z[:k], x[:k], y[:k]
	clear(z)
	var top uint64 // sum bits 64k and up; the sum stays below 2N
	full := k
	if c.half {
		full--
	}
	for _, xi := range x[:full] {
		// sum = (sum + xi·y + m·N) / 2^64, one pass over the limbs, with
		// m chosen so the low word cancels.
		hi, lo := bits.Mul64(xi, y[0])
		t0, cc := bits.Add64(lo, z[0], 0)
		c1 := hi + cc
		m := t0 * c.n0
		hi, lo = bits.Mul64(m, n[0])
		_, cc = bits.Add64(lo, t0, 0)
		c2 := hi + cc
		for j := 1; j < k; j++ {
			hi, lo := bits.Mul64(xi, y[j])
			lo, cc := bits.Add64(lo, z[j], 0)
			hi, _ = bits.Add64(hi, 0, cc)
			t, cc := bits.Add64(lo, c1, 0)
			c1, _ = bits.Add64(hi, 0, cc)
			hi, lo = bits.Mul64(m, n[j])
			lo, cc = bits.Add64(lo, t, 0)
			hi, _ = bits.Add64(hi, 0, cc)
			z[j-1], cc = bits.Add64(lo, c2, 0)
			c2, _ = bits.Add64(hi, 0, cc)
		}
		t, over := bits.Add64(top, c1, 0)
		z[k-1], cc = bits.Add64(t, c2, 0)
		top = over + cc
	}
	if c.half {
		// The top limb holds 32 bits: sum = (sum + x[k-1]·y + m·N) / 2^32
		// with a 32-bit m.
		var over uint64
		top, over = addMul(z, y, x[k-1], top)
		m := (z[0] * c.n0) & (1<<32 - 1)
		var cc uint64
		top, cc = addMul(z, n, m, top)
		over += cc
		for j := 0; j < k-1; j++ {
			z[j] = z[j]>>32 | z[j+1]<<32
		}
		z[k-1] = z[k-1]>>32 | top<<32
		top = top>>32 | over<<32
	}

	// Extra reduction when sum >= N: it spills past k words, or sum − N
	// does not borrow. The subtraction always runs, masked to zero when
	// not needed.
	var b uint64
	for j, nj := range n {
		_, b = bits.Sub64(z[j], nj, b)
	}
	e := top | (b ^ 1)
	mask := -e
	b = 0
	for j, nj := range n {
		z[j], b = bits.Sub64(z[j], nj&mask, b)
	}
	return e == 1
}

// addMul sets z += v·y in place and returns top plus the carry out of z,
// as a word and an overflow bit.
func addMul(z, y []uint64, v, top uint64) (uint64, uint64) {
	var carry uint64
	for j, yj := range y {
		hi, lo := bits.Mul64(v, yj)
		lo, cc := bits.Add64(lo, z[j], 0)
		hi += cc
		z[j], cc = bits.Add64(lo, carry, 0)
		carry = hi + cc
	}
	return bits.Add64(top, carry, 0)
}

// load sets z to the limbs of x, which must fit in len(z) limbs.
func load(z []uint64, x *big.Int) {
	clear(z)
	for i, w := range x.Bits() {
		if bits.UintSize == 64 {
			z[i] = uint64(w)
		} else {
			z[i/2] |= uint64(w) << (32 * (i % 2))
		}
	}
}

// loadMod sets z to the limbs of x mod N.
func (c *MontCtx) loadMod(z []uint64, x *big.Int) {
	if x.Sign() < 0 || x.Cmp(c.N) >= 0 {
		x = new(big.Int).Mod(x, c.N)
	}
	load(z, x)
}

// toBig returns the value of limbs z.
func toBig(z []uint64) *big.Int {
	w := make([]big.Word, len(z)*64/bits.UintSize)
	for i, v := range z {
		if bits.UintSize == 64 {
			w[i] = big.Word(v)
		} else {
			w[2*i], w[2*i+1] = big.Word(v), big.Word(v>>32)
		}
	}
	return new(big.Int).SetBits(w)
}

// toMont sets z to the Montgomery form of x mod N, using tmp as scratch.
func (c *MontCtx) toMont(z, tmp []uint64, x *big.Int) {
	c.loadMod(tmp, x)
	c.montMul(z, tmp, c.rr)
}

// fromMont returns the ordinary residue of Montgomery-form x, using tmp
// as scratch.
func (c *MontCtx) fromMont(tmp, x []uint64) *big.Int {
	c.montMul(tmp, x, c.unit)
	return toBig(tmp)
}

// ToMont converts x into Montgomery form, reducing it mod N first.
func (c *MontCtx) ToMont(x *big.Int) *big.Int {
	k := len(c.n)
	buf := make([]uint64, 2*k)
	z, tmp := buf[:k], buf[k:]
	c.toMont(z, tmp, x)
	return toBig(z)
}

// FromMont converts a Montgomery-form value back to the ordinary residue.
func (c *MontCtx) FromMont(x *big.Int) *big.Int {
	k := len(c.n)
	buf := make([]uint64, 2*k)
	xl, tmp := buf[:k], buf[k:]
	c.loadMod(xl, x)
	return c.fromMont(tmp, xl)
}

// MulMont multiplies two Montgomery-form values, reporting the
// extra-reduction flag. This is the primitive the timing attack emulates.
func (c *MontCtx) MulMont(a, b *big.Int) (*big.Int, bool) {
	k := len(c.n)
	buf := make([]uint64, 3*k)
	al, bl, z := buf[:k], buf[k:2*k], buf[2*k:]
	c.loadMod(al, a)
	c.loadMod(bl, b)
	extra := c.montMul(z, al, bl)
	return toBig(z), extra
}

// One returns the Montgomery representation of 1.
func (c *MontCtx) One() *big.Int { return toBig(c.one) }

// op charges one modular operation: cost cycles, plus the extra
// reduction when it fired. trace, when non-nil, receives the sample.
func (c *MontCtx) op(meter *CycleMeter, trace *[]uint64, cost uint64, extra bool) {
	if extra {
		cost += c.costExtra
	}
	if trace != nil {
		*trace = append(*trace, cost)
	}
	meter.Add(cost)
}

// ModExp computes base^exp mod N with a left-to-right square-and-multiply
// over Montgomery arithmetic. Its simulated timing (accumulated into
// meter, which may be nil) is data-dependent in exactly the way the
// Kocher/Dhem timing attacks exploit: per-operation cost differs between
// squares and multiplies, and each operation may or may not incur the
// extra-reduction subtraction.
func (c *MontCtx) ModExp(base, exp *big.Int, meter *CycleMeter) *big.Int {
	if exp.Sign() == 0 {
		return new(big.Int).Mod(big.NewInt(1), c.N)
	}
	return c.squareMultiply(base, exp, meter, nil)
}

// ModExpWithTrace is ModExp with a per-operation duration trace — the
// signal a simple power analysis (SPA) probe sees: one amplitude sample
// per modular operation. Squares and multiplies have different durations,
// so the operation sequence (and with it the exponent) is readable
// straight off the trace; internal/attack/spa does exactly that.
func (c *MontCtx) ModExpWithTrace(base, exp *big.Int, meter *CycleMeter) (*big.Int, []uint64) {
	if exp.Sign() == 0 {
		return new(big.Int).Mod(big.NewInt(1), c.N), nil
	}
	trace := make([]uint64, 0, 2*exp.BitLen())
	return c.squareMultiply(base, exp, meter, &trace), trace
}

func (c *MontCtx) squareMultiply(base, exp *big.Int, meter *CycleMeter, trace *[]uint64) *big.Int {
	k := len(c.n)
	buf := make([]uint64, 3*k)
	bm, acc, tmp := buf[:k], buf[k:2*k], buf[2*k:]
	c.toMont(bm, tmp, base)
	copy(acc, c.one)
	for i := exp.BitLen() - 1; i >= 0; i-- {
		c.op(meter, trace, c.costSquare, c.montMul(tmp, acc, acc))
		acc, tmp = tmp, acc
		if exp.Bit(i) == 1 {
			c.op(meter, trace, c.costMul, c.montMul(tmp, acc, bm))
			acc, tmp = tmp, acc
		}
	}
	return c.fromMont(tmp, acc)
}

// ModExpConstTime computes base^exp mod N with a Montgomery ladder whose
// simulated timing is independent of both the exponent bits and the data:
// every iteration performs one multiply and one square, and the extra
// reduction is charged unconditionally (modelling an implementation that
// always executes the subtraction and discards it when unneeded). This is
// the countermeasure of Section 3.4 in executable form.
func (c *MontCtx) ModExpConstTime(base, exp *big.Int, meter *CycleMeter) *big.Int {
	if exp.Sign() == 0 {
		return new(big.Int).Mod(big.NewInt(1), c.N)
	}
	return c.ladder(base, exp, meter, nil)
}

// ModExpConstTimeWithTrace is the Montgomery-ladder counterpart: every
// iteration emits one uniform sample, so the trace is flat and carries no
// key information.
func (c *MontCtx) ModExpConstTimeWithTrace(base, exp *big.Int, meter *CycleMeter) (*big.Int, []uint64) {
	if exp.Sign() == 0 {
		return new(big.Int).Mod(big.NewInt(1), c.N), nil
	}
	trace := make([]uint64, 0, exp.BitLen())
	return c.ladder(base, exp, meter, &trace), trace
}

func (c *MontCtx) ladder(base, exp *big.Int, meter *CycleMeter, trace *[]uint64) *big.Int {
	k := len(c.n)
	buf := make([]uint64, 3*k)
	r0, r1, tmp := buf[:k], buf[k:2*k], buf[2*k:]
	copy(r0, c.one)
	c.toMont(r1, tmp, base)
	// Uniform charge: mul + square + one always-taken extra reduction,
	// independent of data and key bits.
	uniform := c.costMul + c.costSquare + c.costExtra
	for i := exp.BitLen() - 1; i >= 0; i-- {
		if exp.Bit(i) == 0 {
			c.montMul(tmp, r0, r1)
			r1, tmp = tmp, r1
			c.montMul(tmp, r0, r0)
			r0, tmp = tmp, r0
		} else {
			c.montMul(tmp, r0, r1)
			r0, tmp = tmp, r0
			c.montMul(tmp, r1, r1)
			r1, tmp = tmp, r1
		}
		c.op(meter, trace, uniform, false)
	}
	return c.fromMont(tmp, r0)
}

// windowBits is the fixed window width used by ModExpWindow.
const windowBits = 4

// ModExpWindow computes base^exp mod N with a 4-bit fixed-window
// exponentiation over Montgomery arithmetic. Every window performs exactly
// four squares and one table multiply (multiplying by the Montgomery 1 for
// a zero window), so the square/multiply sequence depends only on the
// exponent bit-length, not on its bits. It trades sixteen table entries
// for roughly one multiply per four bits saved against square-and-multiply
// on dense exponents; the RSA private path and Diffie-Hellman use it.
// ModExp remains the deliberately leaky variant the side-channel attacks
// consume — its operation sequence must not change.
func (c *MontCtx) ModExpWindow(base, exp *big.Int, meter *CycleMeter) *big.Int {
	if exp.Sign() == 0 {
		return new(big.Int).Mod(big.NewInt(1), c.N)
	}
	const entries = 1 << windowBits
	k := len(c.n)
	// One allocation holds the table (entry w at table[w*k:]), the
	// accumulator and the scratch operand.
	buf := make([]uint64, (entries+2)*k)
	table, acc, tmp := buf[:entries*k], buf[entries*k:(entries+1)*k], buf[(entries+1)*k:]
	copy(table, c.one)
	c.toMont(table[k:2*k], tmp, base)
	for w := 2; w < entries; w++ {
		c.op(meter, nil, c.costMul, c.montMul(table[w*k:(w+1)*k], table[(w-1)*k:w*k], table[k:2*k]))
	}
	windows := (exp.BitLen() + windowBits - 1) / windowBits
	copy(acc, c.one)
	for wi := windows - 1; wi >= 0; wi-- {
		for s := 0; s < windowBits; s++ {
			c.op(meter, nil, c.costSquare, c.montMul(tmp, acc, acc))
			acc, tmp = tmp, acc
		}
		w := 0
		for b := windowBits - 1; b >= 0; b-- {
			w = w<<1 | int(exp.Bit(wi*windowBits+b))
		}
		c.op(meter, nil, c.costMul, c.montMul(tmp, acc, table[w*k:(w+1)*k]))
		acc, tmp = tmp, acc
	}
	return c.fromMont(tmp, acc)
}
