package mp

import (
	"math/big"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func randOddModulus(rng *rand.Rand, bits int) *big.Int {
	n := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(bits)))
	n.SetBit(n, bits-1, 1)
	n.SetBit(n, 0, 1)
	return n
}

func TestNewMontCtxRejectsBadModuli(t *testing.T) {
	for _, n := range []int64{0, -5, 4, 1} {
		if _, err := NewMontCtx(big.NewInt(n)); err == nil {
			t.Errorf("accepted modulus %d", n)
		}
	}
}

func TestMontRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		n := randOddModulus(rng, 128)
		ctx, err := NewMontCtx(n)
		if err != nil {
			t.Fatal(err)
		}
		x := new(big.Int).Rand(rng, n)
		back := ctx.FromMont(ctx.ToMont(x))
		if back.Cmp(x) != 0 {
			t.Fatalf("Mont roundtrip failed for %v mod %v", x, n)
		}
	}
}

func TestMulMontMatchesBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		n := randOddModulus(rng, 96)
		ctx, _ := NewMontCtx(n)
		a := new(big.Int).Rand(rng, n)
		b := new(big.Int).Rand(rng, n)
		am, bm := ctx.ToMont(a), ctx.ToMont(b)
		pm, _ := ctx.MulMont(am, bm)
		got := ctx.FromMont(pm)
		want := new(big.Int).Mod(new(big.Int).Mul(a, b), n)
		if got.Cmp(want) != 0 {
			t.Fatalf("MulMont(%v,%v) mod %v = %v, want %v", a, b, n, got, want)
		}
	}
}

func TestModExpMatchesBigExp(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 60; i++ {
		n := randOddModulus(rng, 160)
		ctx, _ := NewMontCtx(n)
		base := new(big.Int).Rand(rng, n)
		exp := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), 64))
		got := ctx.ModExp(base, exp, nil)
		want := new(big.Int).Exp(base, exp, n)
		if got.Cmp(want) != 0 {
			t.Fatalf("ModExp mismatch: base %v exp %v mod %v", base, exp, n)
		}
	}
}

func TestModExpConstTimeMatchesBigExp(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 60; i++ {
		n := randOddModulus(rng, 160)
		ctx, _ := NewMontCtx(n)
		base := new(big.Int).Rand(rng, n)
		exp := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), 64))
		got := ctx.ModExpConstTime(base, exp, nil)
		want := new(big.Int).Exp(base, exp, n)
		if got.Cmp(want) != 0 {
			t.Fatalf("ModExpConstTime mismatch: base %v exp %v mod %v", base, exp, n)
		}
	}
}

func TestModExpWindowMatchesBigExp(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 60; i++ {
		n := randOddModulus(rng, 160)
		ctx, _ := NewMontCtx(n)
		base := new(big.Int).Rand(rng, n)
		exp := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), 64))
		var meter CycleMeter
		got := ctx.ModExpWindow(base, exp, &meter)
		want := new(big.Int).Exp(base, exp, n)
		if got.Cmp(want) != 0 {
			t.Fatalf("ModExpWindow mismatch: base %v exp %v mod %v", base, exp, n)
		}
		if meter.Cycles() == 0 {
			t.Fatal("ModExpWindow charged no cycles")
		}
	}
	// Edge exponents around window boundaries.
	n := randOddModulus(rng, 96)
	ctx, _ := NewMontCtx(n)
	base := new(big.Int).Rand(rng, n)
	for _, e := range []int64{1, 2, 15, 16, 17, 255, 256, 65537} {
		exp := big.NewInt(e)
		got := ctx.ModExpWindow(base, exp, nil)
		want := new(big.Int).Exp(base, exp, n)
		if got.Cmp(want) != 0 {
			t.Fatalf("ModExpWindow mismatch at exp %d", e)
		}
	}
}

// TestModExpWindowCheaperThanSquareMultiply pins the point of the window
// method: on a dense exponent it spends measurably fewer simulated cycles
// than leaky square-and-multiply.
func TestModExpWindowCheaperThanSquareMultiply(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := randOddModulus(rng, 512)
	ctx, _ := NewMontCtx(n)
	base := new(big.Int).Rand(rng, n)
	// All-ones exponent: worst case for square-and-multiply.
	exp := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 512), big.NewInt(1))
	var plain, window CycleMeter
	ctx.ModExp(base, exp, &plain)
	ctx.ModExpWindow(base, exp, &window)
	if window.Cycles() >= plain.Cycles() {
		t.Fatalf("window method not cheaper: %d >= %d cycles", window.Cycles(), plain.Cycles())
	}
}

func TestModExpZeroExponent(t *testing.T) {
	ctx, _ := NewMontCtx(big.NewInt(101))
	if got := ctx.ModExp(big.NewInt(7), big.NewInt(0), nil); got.Int64() != 1 {
		t.Fatalf("x^0 = %v, want 1", got)
	}
	if got := ctx.ModExpConstTime(big.NewInt(7), big.NewInt(0), nil); got.Int64() != 1 {
		t.Fatalf("const-time x^0 = %v, want 1", got)
	}
	if got := ctx.ModExpWindow(big.NewInt(7), big.NewInt(0), nil); got.Int64() != 1 {
		t.Fatalf("window x^0 = %v, want 1", got)
	}
}

// TestModExpProperty is a testing/quick property against math/big.
func TestModExpProperty(t *testing.T) {
	f := func(baseSeed, expSeed uint64, modSeed uint32) bool {
		n := big.NewInt(int64(modSeed)*2 + 3) // odd, ≥3
		ctx, err := NewMontCtx(n)
		if err != nil {
			return false
		}
		base := new(big.Int).SetUint64(baseSeed)
		exp := new(big.Int).SetUint64(expSeed)
		got := ctx.ModExp(base, exp, nil)
		want := new(big.Int).Exp(new(big.Int).Mod(base, n), exp, n)
		return got.Cmp(want) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestLeakyTimingIsDataDependent verifies the core side-channel premise:
// different bases yield different simulated cycle counts under the leaky
// exponentiation.
func TestLeakyTimingIsDataDependent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := randOddModulus(rng, 512)
	ctx, _ := NewMontCtx(n)
	exp := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), 56))
	exp.SetBit(exp, 55, 1)
	seen := map[uint64]int{}
	for i := 0; i < 50; i++ {
		base := new(big.Int).Rand(rng, n)
		var m CycleMeter
		ctx.ModExp(base, exp, &m)
		seen[m.Cycles()]++
	}
	if len(seen) < 2 {
		t.Fatal("leaky ModExp timing shows no data dependence")
	}
}

// TestConstTimeTimingIsUniform verifies the countermeasure: cycle counts
// depend only on the exponent bit length, not on the data or bit pattern.
func TestConstTimeTimingIsUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := randOddModulus(rng, 512)
	ctx, _ := NewMontCtx(n)
	exp1 := new(big.Int).Lsh(big.NewInt(1), 55)                                  // 56-bit, sparse
	exp2 := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 56), big.NewInt(1)) // 56-bit, dense
	var cycles []uint64
	for _, exp := range []*big.Int{exp1, exp2} {
		for i := 0; i < 10; i++ {
			base := new(big.Int).Rand(rng, n)
			var m CycleMeter
			ctx.ModExpConstTime(base, exp, &m)
			cycles = append(cycles, m.Cycles())
		}
	}
	for _, c := range cycles[1:] {
		if c != cycles[0] {
			t.Fatalf("const-time ModExp cycles vary: %v", cycles)
		}
	}
}

// TestLeakyTimingLeaksHammingWeight: heavier exponents take longer on
// average — the exact high-level leak Section 3.4 describes.
func TestLeakyTimingLeaksHammingWeight(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := randOddModulus(rng, 256)
	ctx, _ := NewMontCtx(n)
	base := new(big.Int).Rand(rng, n)
	light := new(big.Int).Lsh(big.NewInt(1), 63)                                  // HW 1
	heavy := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 64), big.NewInt(1)) // HW 64
	var ml, mh CycleMeter
	ctx.ModExp(base, light, &ml)
	ctx.ModExp(base, heavy, &mh)
	if mh.Cycles() <= ml.Cycles() {
		t.Fatalf("heavy exponent (%d cycles) not slower than light (%d)", mh.Cycles(), ml.Cycles())
	}
}

func TestCycleMeterNilSafety(t *testing.T) {
	var m *CycleMeter
	m.Add(5) // must not panic
	if m.Cycles() != 0 {
		t.Fatal("nil meter should report 0")
	}
	m.Reset()
	var real CycleMeter
	real.Add(7)
	real.Add(3)
	if real.Cycles() != 10 {
		t.Fatalf("meter = %d, want 10", real.Cycles())
	}
	real.Reset()
	if real.Cycles() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestWordsAndCosts(t *testing.T) {
	n := new(big.Int).Lsh(big.NewInt(1), 511)
	n.Add(n, big.NewInt(1)) // 512-bit odd
	ctx, _ := NewMontCtx(n)
	if ctx.Words() != 16 {
		t.Fatalf("512-bit modulus = %d words, want 16", ctx.Words())
	}
	sq, mul, extra := ctx.ExpCycleCosts()
	if sq >= mul {
		t.Fatal("square should be cheaper than multiply")
	}
	if extra == 0 || extra >= sq {
		t.Fatalf("extra reduction cost %d implausible", extra)
	}
	if ctx.CostExtraReduction() != extra {
		t.Fatal("CostExtraReduction disagrees with ExpCycleCosts")
	}
}

func BenchmarkModExp512(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	n := randOddModulus(rng, 512)
	ctx, _ := NewMontCtx(n)
	base := new(big.Int).Rand(rng, n)
	exp := new(big.Int).Rand(rng, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.ModExp(base, exp, nil)
	}
}

func BenchmarkModExpConstTime512(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	n := randOddModulus(rng, 512)
	ctx, _ := NewMontCtx(n)
	base := new(big.Int).Rand(rng, n)
	exp := new(big.Int).Rand(rng, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.ModExpConstTime(base, exp, nil)
	}
}

// TestTracedVariantsMatchUntraced: the traced exponentiations compute the
// same results and meter the same cycles as their untraced forms.
func TestTracedVariantsMatchUntraced(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := randOddModulus(rng, 192)
	ctx, _ := NewMontCtx(n)
	base := new(big.Int).Rand(rng, n)
	exp := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), 48))
	exp.SetBit(exp, 47, 1)

	var m1, m2 CycleMeter
	want := ctx.ModExp(base, exp, &m1)
	got, trace := ctx.ModExpWithTrace(base, exp, &m2)
	if got.Cmp(want) != 0 {
		t.Fatal("traced result differs")
	}
	if m1.Cycles() != m2.Cycles() {
		t.Fatalf("traced meter %d != untraced %d", m2.Cycles(), m1.Cycles())
	}
	var sum uint64
	for _, d := range trace {
		sum += d
	}
	if sum != m2.Cycles() {
		t.Fatal("trace does not sum to the meter")
	}

	var m3, m4 CycleMeter
	wantCT := ctx.ModExpConstTime(base, exp, &m3)
	gotCT, traceCT := ctx.ModExpConstTimeWithTrace(base, exp, &m4)
	if gotCT.Cmp(wantCT) != 0 || gotCT.Cmp(want) != 0 {
		t.Fatal("const-time traced result differs")
	}
	if m3.Cycles() != m4.Cycles() {
		t.Fatal("const-time traced meter differs")
	}
	if len(traceCT) != exp.BitLen() {
		t.Fatalf("ladder trace has %d samples, want %d", len(traceCT), exp.BitLen())
	}
	for _, d := range traceCT[1:] {
		if d != traceCT[0] {
			t.Fatal("ladder trace not uniform")
		}
	}
}

func TestTracedZeroExponent(t *testing.T) {
	ctx, _ := NewMontCtx(big.NewInt(101))
	r, tr := ctx.ModExpWithTrace(big.NewInt(5), big.NewInt(0), nil)
	if r.Int64() != 1 || tr != nil {
		t.Fatal("traced x^0 mishandled")
	}
	r2, tr2 := ctx.ModExpConstTimeWithTrace(big.NewInt(5), big.NewInt(0), nil)
	if r2.Int64() != 1 || tr2 != nil {
		t.Fatal("const-time traced x^0 mishandled")
	}
}

func TestNewMontCtxEvenAfterValidation(t *testing.T) {
	// The smallest accepted shape: a one-word odd modulus, whose single
	// REDC step is the 32-bit one.
	ctx, err := NewMontCtx(big.NewInt(9))
	if err != nil || ctx.Words() != 1 {
		t.Fatalf("ctx for 9: %v", err)
	}
}

// refREDC is the textbook Montgomery reduction over math/big with
// R = 2^(32·words): u = (t + (t·(−N^{-1}) mod R)·N)/R, then one
// conditional subtraction. It is the reference the limb kernel must match
// in value and extra-reduction flag.
func refREDC(n *big.Int, words int, t *big.Int) (*big.Int, bool) {
	rbits := uint(words * WordBits)
	r := new(big.Int).Lsh(big.NewInt(1), rbits)
	mask := new(big.Int).Sub(r, big.NewInt(1))
	nPrime := new(big.Int).Sub(r, new(big.Int).ModInverse(n, r))
	m := new(big.Int).And(t, mask)
	m.Mul(m, nPrime).And(m, mask)
	u := new(big.Int).Mul(m, n)
	u.Add(u, t).Rsh(u, rbits)
	extra := u.Cmp(n) >= 0
	if extra {
		u.Sub(u, n)
	}
	return u, extra
}

// FuzzMontMul diffs MulMont against refREDC over moduli of odd and even
// 32-bit word counts, including operands near N that force the extra
// reduction.
func FuzzMontMul(f *testing.F) {
	for _, size := range []int{1, 4, 5, 8, 12, 20, 24, 32, 33, 64, 100, 128} {
		n := make([]byte, size)
		a := make([]byte, size)
		b := make([]byte, size)
		for i := range n {
			n[i] = byte(7*i + 3)
			a[i] = 0xff
			b[i] = byte(251 - i)
		}
		f.Add(n, a, b)
	}
	f.Fuzz(func(t *testing.T, nb, ab, bb []byte) {
		if len(nb) > 160 {
			nb = nb[:160]
		}
		n := new(big.Int).SetBytes(nb)
		n.SetBit(n, 0, 1)
		if n.BitLen() < 2 {
			n.SetInt64(3)
		}
		ctx, err := NewMontCtx(n)
		if err != nil {
			t.Fatal(err)
		}
		a := new(big.Int).Mod(new(big.Int).SetBytes(ab), n)
		b := new(big.Int).Mod(new(big.Int).SetBytes(bb), n)
		got, gotExtra := ctx.MulMont(a, b)
		want, wantExtra := refREDC(n, ctx.Words(), new(big.Int).Mul(a, b))
		if got.Cmp(want) != 0 || gotExtra != wantExtra {
			t.Fatalf("MulMont(%x, %x) mod %x (%d words) = %x extra=%v, want %x extra=%v",
				a, b, n, ctx.Words(), got, gotExtra, want, wantExtra)
		}
	})
}

// TestSharedCtxConcurrent: one MontCtx serves many goroutines at once, as
// in the gateway's workers and the timing attack's par.ForN. Run under
// -race it proves the kernel keeps no per-call state in the context.
func TestSharedCtxConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := randOddModulus(rng, 160)
	ctx, _ := NewMontCtx(n)
	const workers = 8
	bases := make([]*big.Int, workers)
	exps := make([]*big.Int, workers)
	for i := range bases {
		bases[i] = new(big.Int).Rand(rng, n)
		exps[i] = new(big.Int).Rand(rng, n)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			want := new(big.Int).Exp(bases[w], exps[w], n)
			for i := 0; i < 20; i++ {
				var m CycleMeter
				if got := ctx.ModExpWindow(bases[w], exps[w], &m); got.Cmp(want) != 0 {
					t.Errorf("worker %d: ModExpWindow mismatch", w)
					return
				}
				if got, _ := ctx.ModExpWithTrace(bases[w], exps[w], &m); got.Cmp(want) != 0 {
					t.Errorf("worker %d: ModExpWithTrace mismatch", w)
					return
				}
				if got := ctx.ModExpConstTime(bases[w], exps[w], &m); got.Cmp(want) != 0 {
					t.Errorf("worker %d: ModExpConstTime mismatch", w)
					return
				}
				p, _ := ctx.MulMont(ctx.ToMont(bases[w]), ctx.One())
				if ctx.FromMont(p).Cmp(bases[w]) != 0 {
					t.Errorf("worker %d: Montgomery roundtrip mismatch", w)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestModExpWindowAllocs pins the allocation-free core: the window
// exponentiation allocates a fixed handful of objects (working limbs and
// the result), the same for a 256- and a 512-bit exponent.
func TestModExpWindowAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := randOddModulus(rng, 512)
	ctx, _ := NewMontCtx(n)
	base := new(big.Int).Rand(rng, n)
	var allocs [2]float64
	for i, bits := range []uint{256, 512} {
		exp := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), bits))
		exp.SetBit(exp, int(bits)-1, 1)
		var m CycleMeter
		allocs[i] = testing.AllocsPerRun(20, func() { ctx.ModExpWindow(base, exp, &m) })
	}
	if allocs[0] != allocs[1] {
		t.Fatalf("ModExpWindow allocs depend on exponent length: %v at 256 bits, %v at 512", allocs[0], allocs[1])
	}
	if allocs[1] > 8 {
		t.Fatalf("ModExpWindow allocates %v objects per call, want <= 8", allocs[1])
	}
}
