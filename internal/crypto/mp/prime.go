package mp

import (
	"math/big"
	"math/bits"
)

// Prime screening. RSA key generation and the safe-prime DH group search
// draw random candidates and hand each to big.Int.ProbablyPrime, which
// seeds a math/rand source and runs a Miller-Rabin round on every
// candidate that survives its own trial division by the primes up to 53.
// Most candidates are composite, and that rejection dominated key
// generation. The screen below rejects most of them for a fraction of the
// cost: trial division by every odd prime below 1024, then one base-2
// Fermat test.
//
// Both steps reject only composites, and both are implied by what
// ProbablyPrime accepts: it always runs a base-2 Miller-Rabin round, which
// is stronger than the base-2 Fermat test, and no number it accepts is
// known to have a factor below 1024. Running the screen first therefore
// changes the cost of a search, never its result.

// screenLimit bounds the trial-division primes.
const screenLimit = 1024

// primeGroup is a run of consecutive odd primes whose product fits in a
// uint64: one pass over a candidate's words yields its residue modulo
// the product, and the residue modulo each prime follows in one word
// division.
type primeGroup struct {
	product uint64
	primes  []uint64
}

var screenGroups = groupPrimes(screenLimit)

// groupPrimes packs the odd primes below limit, ascending, into groups
// whose products fit in 64 bits. Ascending order lets most composites
// leave at the first group, the one holding 3, 5 and 7.
func groupPrimes(limit int) []primeGroup {
	composite := make([]bool, limit)
	var groups []primeGroup
	g := primeGroup{product: 1}
	for p := 3; p < limit; p += 2 {
		if composite[p] {
			continue
		}
		for m := p * p; m < limit; m += 2 * p {
			composite[m] = true
		}
		if hi, _ := bits.Mul64(g.product, uint64(p)); hi != 0 {
			groups = append(groups, g)
			g = primeGroup{product: 1}
		}
		g.product *= uint64(p)
		g.primes = append(g.primes, uint64(p))
	}
	return append(groups, g)
}

// wordsMod returns x mod m for the little-endian words of x, each
// wordBits wide (32 or 64). The running remainder r < m, so the two-word
// dividend r·2^wordBits + w has a high word below m and bits.Div64
// cannot overflow.
func wordsMod(x []big.Word, wordBits uint, m uint64) uint64 {
	var r uint64
	for i := len(x) - 1; i >= 0; i-- {
		_, r = bits.Div64(r>>(64-wordBits), r<<wordBits|uint64(x[i]), m)
	}
	return r
}

// noSmallFactor reports whether odd x ≥ screenLimit has no prime factor
// below screenLimit. With safe set, it also requires the same of 2x+1:
// a prime r divides 2x+1 exactly when x ≡ (r-1)/2 (mod r).
func noSmallFactor(x []big.Word, wordBits uint, safe bool) bool {
	for _, g := range screenGroups {
		r := wordsMod(x, wordBits, g.product)
		for _, p := range g.primes {
			if s := r % p; s == 0 || safe && s == p>>1 {
				return false
			}
		}
	}
	return true
}

var (
	bigOne = big.NewInt(1)
	bigTwo = big.NewInt(2)
)

// fermat2 reports whether 2^(n-1) ≡ 1 (mod n), which every odd prime n
// satisfies.
func fermat2(n *big.Int) bool {
	e := new(big.Int).Sub(n, bigOne)
	return e.Exp(bigTwo, e, n).Cmp(bigOne) == 0
}

// screen is ScreenPrime, and with safe set the part of ScreenSafePrime
// that needs only n.
func screen(n *big.Int, safe bool) bool {
	if n.Sign() <= 0 || n.Bit(0) == 0 {
		return n.Cmp(bigTwo) == 0
	}
	// Below screenLimit, n may be one of the trial divisors itself.
	if n.BitLen() > bits.Len(screenLimit-1) && !noSmallFactor(n.Bits(), bits.UintSize, safe) {
		return false
	}
	return fermat2(n)
}

// ScreenPrime reports whether n may be prime. False means n is certainly
// composite (or below 2); true means nothing, so a search still asks
// ProbablyPrime. Any n that ProbablyPrime accepts passes.
func ScreenPrime(n *big.Int) bool { return screen(n, false) }

// ScreenSafePrime reports whether q and 2q+1 may both be prime, the
// condition of a safe-prime search, with ScreenPrime's guarantee for each.
func ScreenSafePrime(q *big.Int) bool {
	if !screen(q, true) {
		return false
	}
	p := new(big.Int).Lsh(q, 1)
	return fermat2(p.Add(p, bigOne))
}
