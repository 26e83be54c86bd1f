// Command attacklab demonstrates the Section 3.4 tamper-resistance story
// end to end: each physical/side-channel/protocol attack is mounted
// against the undefended implementation (and succeeds), then against the
// countermeasure (and fails).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"math/big"
	"os"

	"repro/internal/attack/dfa"
	"repro/internal/attack/dpa"
	"repro/internal/attack/fault"
	"repro/internal/attack/maccompare"
	"repro/internal/attack/spa"
	"repro/internal/attack/timing"
	"repro/internal/attack/wepattack"
	"repro/internal/crypto/des"
	"repro/internal/crypto/mp"
	"repro/internal/crypto/prng"
	"repro/internal/crypto/rsa"
	"repro/internal/crypto/sha1"
	"repro/internal/obs"
	"repro/internal/obs/prof"
	"repro/internal/wep"
)

func main() {
	only := flag.String("only", "", "run a single attack: timing, dpa, fault, wep")
	o := obs.BindFlags(flag.CommandLine)
	flag.Parse()
	if err := o.Activate(); err != nil {
		fmt.Fprintf(os.Stderr, "attacklab: %v\n", err)
		os.Exit(1)
	}
	defer o.Close()

	attacks := []struct {
		name string
		run  func() error
	}{
		{"timing", timingDemo},
		{"spa", spaDemo},
		{"dpa", dpaDemo},
		{"fault", faultDemo},
		{"wep", wepDemo},
		{"maccompare", macCompareDemo},
		{"dfa", dfaDemo},
	}
	for i, a := range attacks {
		if *only != "" && *only != a.name {
			continue
		}
		fmt.Printf("=== %s ===\n", a.name)
		sp := obs.DefaultDTracer.Root(obs.TraceID(0, int64(i)), "attack", a.name)
		err := a.run()
		sp.End()
		if err != nil {
			fmt.Fprintf(os.Stderr, "attacklab: %s: %v\n", a.name, err)
			o.Close()
			os.Exit(1)
		}
		fmt.Println()
	}
	o.Finish("attacklab")
}

func timingDemo() error {
	rng := prng.NewDRBG([]byte("lab-timing"))
	n := new(big.Int).SetBytes(rng.Bytes(32))
	n.SetBit(n, 255, 1)
	n.SetBit(n, 0, 1)
	ctx, err := mp.NewMontCtx(n)
	if err != nil {
		return err
	}
	secret := new(big.Int).SetBytes(rng.Bytes(4))
	secret.SetBit(secret, 31, 1)
	secret.SetBit(secret, 0, 1)
	bases := make([]*big.Int, 7000)
	for i := range bases {
		x := new(big.Int).SetBytes(rng.Bytes(32))
		bases[i] = x.Mod(x, n)
	}
	fmt.Printf("victim: leaky square-and-multiply modexp, 32-bit secret exponent, %d timed queries\n", len(bases))
	// An oracle observation *is* the victim's simulated cycle count, so
	// profiling the attack workload is a matter of accumulating what the
	// attacker measures (metered frames are no-ops unless -profile).
	meter := func(o timing.Oracle, frame string) timing.Oracle {
		sp := prof.Frame(frame)
		return func(base *big.Int) float64 {
			t := o(base)
			sp.AddCycles(int64(t))
			return t
		}
	}
	leaky := meter(timing.LeakyOracle(ctx, secret, nil), "attacklab.timing/mp.ModExp")
	res, err := timing.RecoverExponent(ctx, leaky, 32, bases)
	if err != nil {
		return err
	}
	fmt.Printf("  recovered %#x (truth %#x) — match=%v, confidence %.2f\n",
		res.Recovered, secret, res.Recovered.Cmp(secret) == 0, res.Confidence)

	ct := meter(timing.ConstTimeOracle(ctx, secret, nil), "attacklab.timing/mp.ModExpConstTime")
	resCT, err := timing.RecoverExponent(ctx, ct, 32, bases)
	if err != nil {
		return err
	}
	fmt.Printf("  against Montgomery-ladder countermeasure: match=%v, confidence %.2f (attack defeated)\n",
		resCT.Recovered.Cmp(secret) == 0, resCT.Confidence)
	return nil
}

func dpaDemo() error {
	key := []byte("handset AES key!")
	rng := prng.NewDRBG([]byte("lab-dpa"))
	ts, err := dpa.CollectAES(key, 500, 0.8, rng, false)
	if err != nil {
		return err
	}
	got, corrs, err := dpa.AttackAES(ts)
	if err != nil {
		return err
	}
	fmt.Printf("victim: AES-128 first round, 500 Hamming-weight traces (σ=0.8)\n")
	fmt.Printf("  recovered key match=%v (mean winning correlation %.2f)\n",
		bytes.Equal(got, key), mean(corrs))

	masked, err := dpa.CollectAES(key, 500, 0.8, rng, true)
	if err != nil {
		return err
	}
	gotM, corrsM, err := dpa.AttackAES(masked)
	if err != nil {
		return err
	}
	fmt.Printf("  against Boolean masking: match=%v (mean correlation %.2f — attack defeated)\n",
		bytes.Equal(gotM, key), mean(corrsM))
	return nil
}

func faultDemo() error {
	key, err := rsa.GenerateKey(prng.NewDRBG([]byte("lab-fault")), 512)
	if err != nil {
		return err
	}
	digest := sha1.Sum([]byte("firmware update 7.3"))
	faulty, err := rsa.SignPKCS1(key, "sha1", digest[:], &rsa.Options{Fault: &rsa.Fault{FlipBit: 41}})
	if err != nil {
		return err
	}
	fmt.Println("victim: RSA-512 CRT signing, one injected glitch in the mod-p half")
	factor, err := fault.FactorFromFaultySignature(&key.PublicKey, "sha1", digest[:], faulty)
	if err != nil {
		return err
	}
	fmt.Printf("  gcd(s^e - m, N) factored the modulus: factor matches q=%v\n", factor.Cmp(key.Q) == 0 || factor.Cmp(key.P) == 0)
	full, err := fault.RecoverPrivateKey(&key.PublicKey, factor)
	if err != nil {
		return err
	}
	fmt.Printf("  full private key rebuilt: d matches=%v\n", full.D.Cmp(key.D) == 0)

	_, err = rsa.SignPKCS1(key, "sha1", digest[:], &rsa.Options{
		Fault: &rsa.Fault{FlipBit: 41}, VerifyAfterSign: true,
	})
	fmt.Printf("  against verify-before-release: signing aborted with %q (attack defeated)\n", err)
	return nil
}

func wepDemo() error {
	key := []byte{0x05, 0x13, 0x42, 0xAD, 0x77}
	rng := prng.NewDRBG([]byte("lab-wep"))

	// Bit-flip forgery.
	ep, err := wep.NewEndpoint(key, wep.IVSequential)
	if err != nil {
		return err
	}
	frame, err := ep.Seal([]byte("PAY mallory $001"))
	if err != nil {
		return err
	}
	delta := make([]byte, 16)
	delta[13] = '0' ^ '9'
	forged, err := wepattack.ForgeBitFlip(frame, delta)
	if err != nil {
		return err
	}
	got, err := ep.Open(forged)
	fmt.Printf("ICV bit-flip forgery: victim accepted %q (err=%v)\n", got, err)

	// FMS key recovery.
	var frames [][]byte
	payload := make([]byte, 16)
	for b := 0; b < len(key); b++ {
		for x := 0; x < 256; x++ {
			iv := [3]byte{byte(b + 3), 255, byte(x)}
			payload[0] = 0xAA
			rng.Read(payload[1:])
			f, err := wep.SealWithIV(key, iv, payload)
			if err != nil {
				return err
			}
			frames = append(frames, f)
		}
	}
	ref, err := wep.SealWithIV(key, [3]byte{77, 1, 2}, []byte("known dhcp frame"))
	if err != nil {
		return err
	}
	verify := func(k []byte) bool {
		pt, err := wep.Open(k, ref)
		return err == nil && bytes.Equal(pt, []byte("known dhcp frame"))
	}
	res, err := wepattack.FMSRecoverKey(frames, 0xAA, len(key), verify)
	if err != nil {
		return err
	}
	fmt.Printf("FMS weak-IV attack: recovered WEP-40 key %x from %d sniffed frames (match=%v)\n",
		res.Key, len(frames), bytes.Equal(res.Key, key))
	return nil
}

func spaDemo() error {
	rng := prng.NewDRBG([]byte("lab-spa"))
	n := new(big.Int).SetBytes(rng.Bytes(64))
	n.SetBit(n, 511, 1)
	n.SetBit(n, 0, 1)
	ctx, err := mp.NewMontCtx(n)
	if err != nil {
		return err
	}
	secret := new(big.Int).SetBytes(rng.Bytes(64))
	secret.SetBit(secret, 511, 1)
	_, trace := ctx.ModExpWithTrace(big.NewInt(7), secret, nil)
	got, err := spa.RecoverExponent(ctx, trace)
	if err != nil {
		return err
	}
	fmt.Printf("victim: leaky 512-bit modexp, ONE operation-duration trace (%d samples)\n", len(trace))
	fmt.Printf("  exponent read straight off the trace: match=%v\n", got.Cmp(secret) == 0)
	_, flat := ctx.ModExpConstTimeWithTrace(big.NewInt(7), secret, nil)
	fmt.Printf("  against the Montgomery ladder: trace flat=%v (attack defeated)\n", spa.TraceIsFlat(flat))
	return nil
}

func macCompareDemo() error {
	v := maccompare.NewVerifier([]byte("shared key"), []byte("POST /pay?amt=999"), false)
	forged, queries, err := maccompare.ForgeMAC(v)
	if err != nil {
		return err
	}
	ok, _ := v.Check(forged)
	fmt.Printf("victim: early-exit MAC comparison (20-byte HMAC-SHA1)\n")
	fmt.Printf("  forged a valid MAC in %d timing queries (vs 2^160 blind): accepted=%v\n", queries, ok)
	ct := maccompare.NewVerifier([]byte("shared key"), []byte("POST /pay?amt=999"), true)
	_, _, err = maccompare.ForgeMAC(ct)
	fmt.Printf("  against constant-time comparison: %v (attack defeated)\n", err)
	return nil
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func dfaDemo() error {
	c, err := des.NewCipher([]byte{0x13, 0x34, 0x57, 0x79, 0x9B, 0xBC, 0xDF, 0xF1})
	if err != nil {
		return err
	}
	rng := prng.NewDRBG([]byte("lab-dfa"))
	var pts [][]byte
	for i := 0; i < 32; i++ {
		pts = append(pts, rng.Bytes(8))
	}
	bits := []uint{0, 3, 7, 11, 14, 18, 21, 25, 28, 30, 2, 9, 16, 23, 27, 31}
	pairs, err := dfa.CollectPairs(c, pts, bits)
	if err != nil {
		return err
	}
	k16, err := dfa.RecoverLastSubkey(pairs)
	if err != nil {
		return err
	}
	fmt.Printf("victim: DES with single-bit glitches in R15, %d faulty pairs\n", len(pairs))
	fmt.Printf("  recovered last-round subkey K16=%012x (match=%v)\n", k16, k16 == c.Subkey(15))
	_, rerr := dfa.RedundantEncrypt(c, pts[0], 9)
	fmt.Printf("  against redundant execution: %v (attack defeated)\n", rerr)
	return nil
}
