package mp

import (
	"io"
	"math/big"
	"math/bits"
	"testing"

	"repro/internal/crypto/prng"
)

// checkScreen asserts the screen's contract on n: it may pass composites,
// but it rejects nothing that ProbablyPrime(20) accepts.
func checkScreen(t *testing.T, n *big.Int) (pass bool) {
	t.Helper()
	pass = ScreenPrime(n)
	if !pass && n.ProbablyPrime(20) {
		t.Fatalf("ScreenPrime rejected %v, which ProbablyPrime(20) accepts", n)
	}
	return pass
}

func TestScreenPassesPrimes(t *testing.T) {
	p256, _ := new(big.Int).SetString("ffffffff00000001000000000000000000000000ffffffffffffffffffffffff", 16)
	m127 := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 127), big.NewInt(1))
	primes := []*big.Int{p256, m127, big.NewInt(4294967291), big.NewInt(1<<61 - 1)}
	// Every prime below 3000: the trial divisors themselves, and the
	// primes just above the trial-division bound.
	for n := int64(2); n < 3000; n++ {
		if big.NewInt(n).ProbablyPrime(0) {
			primes = append(primes, big.NewInt(n))
		}
	}
	for _, p := range primes {
		if !p.ProbablyPrime(20) {
			t.Fatalf("test vector %v is not prime", p)
		}
		if !checkScreen(t, p) {
			t.Fatalf("ScreenPrime rejected prime %v", p)
		}
	}
}

func TestScreenRejectsComposites(t *testing.T) {
	// Carmichael numbers and base-2 Fermat pseudoprimes. The ones below
	// 1024 have no trial division and pass the Fermat test; the screen
	// may pass them, and ProbablyPrime must then reject them.
	for _, n := range []int64{0, 1, 4, 9, 561, 1105, 1729, 41041, 341, 2047, 3277, 4033, 8321} {
		pass := checkScreen(t, big.NewInt(n))
		if n >= screenLimit && pass {
			t.Errorf("ScreenPrime passed %d, which has a factor below %d", n, screenLimit)
		}
	}
	// Products of small primes, the largest trial divisor included.
	for _, fs := range [][]int64{{3, 5}, {1021, 1019}, {1021, 1031}, {7, 11, 13, 41}, {2, 1031}} {
		n := big.NewInt(1)
		for _, f := range fs {
			n.Mul(n, big.NewInt(f))
		}
		if checkScreen(t, n) {
			t.Errorf("ScreenPrime passed %v = %v", n, fs)
		}
	}
	// A Chernick Carmichael number (6k+1)(12k+1)(18k+1) whose factors all
	// exceed 1024 passes both steps: the screen is not a primality test,
	// and ProbablyPrime still decides.
	for k := int64(171); ; k++ {
		f := []*big.Int{big.NewInt(6*k + 1), big.NewInt(12*k + 1), big.NewInt(18*k + 1)}
		if !f[0].ProbablyPrime(0) || !f[1].ProbablyPrime(0) || !f[2].ProbablyPrime(0) {
			continue
		}
		n := new(big.Int).Mul(f[0], f[1])
		n.Mul(n, f[2])
		if !checkScreen(t, n) {
			t.Fatalf("ScreenPrime rejected Carmichael number %v with no small factor", n)
		}
		if n.ProbablyPrime(20) {
			t.Fatalf("ProbablyPrime(20) accepted Carmichael number %v", n)
		}
		break
	}
}

// TestScreenDRBGCandidates runs the screen on 10^4 candidates shaped as
// RSA key generation shapes them and checks it against ProbablyPrime(20)
// on every one.
func TestScreenDRBGCandidates(t *testing.T) {
	rng := prng.NewDRBG([]byte("screen-candidates"))
	buf := make([]byte, 32)
	var sieved, passed, primes int
	for i := 0; i < 10000; i++ {
		if _, err := io.ReadFull(rng, buf); err != nil {
			t.Fatal(err)
		}
		n := new(big.Int).SetBytes(buf)
		n.SetBit(n, 255, 1)
		n.SetBit(n, 0, 1)
		if noSmallFactor(n.Bits(), bits.UintSize, false) {
			sieved++
		}
		if checkScreen(t, n) {
			passed++
		}
		if n.ProbablyPrime(20) {
			primes++
		}
	}
	// About 16 % of odd numbers have no odd prime factor below 1024, and
	// a base-2 Fermat pseudoprime of 256 bits is too rare to meet here.
	t.Logf("of 10000 candidates %d have no small factor, %d pass the screen, %d are prime", sieved, passed, primes)
	if sieved < 1200 || sieved > 2000 || passed != primes || primes == 0 {
		t.Fatal("screen pass rates out of range")
	}
}

func TestScreenSafePrime(t *testing.T) {
	// q and 2q+1 both prime: Sophie Germain primes below and above 1024.
	for _, q := range []int64{2, 3, 5, 11, 23, 1013, 1019, 1031, 1049, 1103} {
		p := big.NewInt(2*q + 1)
		if !big.NewInt(q).ProbablyPrime(20) || !p.ProbablyPrime(20) {
			t.Fatalf("test vector %d is not a Sophie Germain prime", q)
		}
		if !ScreenSafePrime(big.NewInt(q)) {
			t.Errorf("ScreenSafePrime rejected Sophie Germain prime %d", q)
		}
	}
	// q prime but 2q+1 = 2067 = 3·13·53, and q composite.
	for _, q := range []int64{1033, 1035} {
		if ScreenSafePrime(big.NewInt(q)) {
			t.Errorf("ScreenSafePrime passed %d", q)
		}
	}
	// q with no small factor whose 2q+1 the largest trial divisor divides.
	for k := int64(1031); ; k += 2 {
		q := big.NewInt((1021*k - 1) / 2)
		if !noSmallFactor(q.Bits(), bits.UintSize, false) {
			continue
		}
		if noSmallFactor(q.Bits(), bits.UintSize, true) || ScreenSafePrime(q) {
			t.Errorf("ScreenSafePrime passed %v, though 1021 divides 2q+1", q)
		}
		break
	}
	// On 512-bit candidates it never rejects a pair ProbablyPrime accepts.
	rng := prng.NewDRBG([]byte("safe-screen-candidates"))
	buf := make([]byte, 64)
	for i := 0; i < 2000; i++ {
		if _, err := io.ReadFull(rng, buf); err != nil {
			t.Fatal(err)
		}
		q := new(big.Int).SetBytes(buf)
		q.SetBit(q, 0, 1)
		p := new(big.Int).Lsh(q, 1)
		p.Add(p, big.NewInt(1))
		if !ScreenSafePrime(q) && q.ProbablyPrime(20) && p.ProbablyPrime(20) {
			t.Fatalf("ScreenSafePrime rejected safe-prime pair q = %v", q)
		}
	}
}

// TestWordsModBothWordSizes checks the residue code against big.Int.Mod
// with 64-bit words and with the same values split into 32-bit words, as
// big.Word holds them on 32-bit platforms.
func TestWordsModBothWordSizes(t *testing.T) {
	rng := prng.NewDRBG([]byte("words-mod"))
	buf := make([]byte, 72)
	moduli := []uint64{3, 1021, 1<<32 - 5, 1<<63 + 29, ^uint64(0)}
	for _, g := range screenGroups {
		moduli = append(moduli, g.product)
	}
	for i := 0; i < 200; i++ {
		if _, err := io.ReadFull(rng, buf); err != nil {
			t.Fatal(err)
		}
		x := new(big.Int).SetBytes(buf[:1+i%len(buf)])
		w64, w32 := split(x, 64), split(x, 32)
		for _, m := range moduli {
			want := new(big.Int).Mod(x, new(big.Int).SetUint64(m)).Uint64()
			if got := wordsMod(w64, 64, m); got != want {
				t.Fatalf("64-bit words: %v mod %d = %d, want %d", x, m, got, want)
			}
			if got := wordsMod(w32, 32, m); got != want {
				t.Fatalf("32-bit words: %v mod %d = %d, want %d", x, m, got, want)
			}
			if got := wordsMod(x.Bits(), bits.UintSize, m); got != want {
				t.Fatalf("native words: %v mod %d = %d, want %d", x, m, got, want)
			}
		}
	}
}

// split returns the little-endian wordBits-wide words of x, one per
// big.Word.
func split(x *big.Int, wordBits uint) []big.Word {
	var out []big.Word
	mask := new(big.Int).SetUint64(1<<wordBits - 1)
	for v := new(big.Int).Set(x); v.Sign() > 0; v.Rsh(v, wordBits) {
		out = append(out, big.Word(new(big.Int).And(v, mask).Uint64()))
	}
	return out
}

func TestScreenGroupsCoverOddPrimesBelowLimit(t *testing.T) {
	var n int
	last := uint64(1)
	for _, g := range screenGroups {
		prod := uint64(1)
		for _, p := range g.primes {
			if p <= last || !big.NewInt(int64(p)).ProbablyPrime(0) {
				t.Fatalf("group prime %d out of order or composite", p)
			}
			last = p
			prod *= p
			n++
		}
		if prod != g.product {
			t.Fatalf("group product %d, want %d", g.product, prod)
		}
	}
	if n != 171 || last != 1021 {
		t.Fatalf("%d trial divisors up to %d, want the 171 odd primes up to 1021", n, last)
	}
}
