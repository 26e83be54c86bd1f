// Command paperrepro is the self-checking reproduction harness: it
// re-derives every quantitative figure and claim of the paper from the
// running system, compares each against the published value or property,
// and prints a PASS/FAIL table (exit status 1 on any failure).
//
//	go run ./cmd/paperrepro
package main

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"math/big"
	"os"
	"runtime"

	mobilesec "repro"
	"repro/internal/attack/dpa"
	"repro/internal/attack/fault"
	"repro/internal/attack/spa"
	"repro/internal/attack/timing"
	"repro/internal/attack/wepattack"
	"repro/internal/cost"
	"repro/internal/crypto/mp"
	"repro/internal/crypto/prng"
	"repro/internal/crypto/rsa"
	"repro/internal/crypto/sha1"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/wep"
)

type check struct {
	id       string
	claim    string
	expected string
	measured string
	pass     bool
}

func main() {
	workers := flag.Int("workers", runtime.GOMAXPROCS(0),
		"sweep worker count; output is identical at any value, 1 runs sequentially")
	o := obs.BindFlags(flag.CommandLine)
	flag.Parse()
	par.SetDefaultWorkers(*workers)
	if err := o.Activate(); err != nil {
		fmt.Fprintf(os.Stderr, "paperrepro: %v\n", err)
		os.Exit(1)
	}
	defer o.Close()

	var checks []check
	sp := obs.DefaultDTracer.Root(obs.TraceID(0, 0), "repro", "all_checks")
	add := func(id, claim, expected, measured string, pass bool) {
		checks = append(checks, check{id, claim, expected, measured, pass})
		sp.Event("repro", "check_"+id, obs.DTraceNowUS(), 0, int64(len(checks)))
	}

	// ---- F2: protocol evolution --------------------------------------
	wired, err := mobilesec.RevisionRate("SSL/TLS")
	die(err)
	wtlsRate, err := mobilesec.RevisionRate("WTLS")
	die(err)
	add("F2", "wireless protocols revise faster than wired", "WTLS rate > SSL/TLS rate",
		fmt.Sprintf("%.2f vs %.2f rev/yr", wtlsRate, wired), wtlsRate > wired)

	// ---- F3 / T1: processing gap --------------------------------------
	bulk, err := cost.DemandMIPS(1e12, 10, cost.HandshakeRSA1024, cost.DES3, cost.SHA1)
	die(err)
	add("T1", "3DES+SHA @ 10 Mbps demand", "651.3 MIPS",
		fmt.Sprintf("%.1f MIPS", bulk), math.Abs(bulk-651.3) < 0.1)

	surface, err := mobilesec.ComputeGapSurface(mobilesec.DefaultLatencies(), mobilesec.DefaultRates(), 300)
	die(err)
	add("F3", "gap region above the 300-MIPS plane", "substantial fraction of envelope",
		fmt.Sprintf("%.0f%% infeasible", surface.GapFraction()*100),
		surface.GapFraction() > 0.3 && surface.GapFraction() < 1)

	sa1100, err := mobilesec.ProcessorByName("StrongARM-SA1100")
	die(err)
	h, err := cost.HandshakeInstr(cost.HandshakeRSA1024)
	die(err)
	hsSec := h / (sa1100.MIPS * 1e6)
	okHalf, err := mobilesec.SoftwareOnly(sa1100).Feasible(0.5, 0, cost.HandshakeRSA1024, cost.DES3, cost.SHA1)
	die(err)
	okTenth, err := mobilesec.SoftwareOnly(sa1100).Feasible(0.1, 0, cost.HandshakeRSA1024, cost.DES3, cost.SHA1)
	die(err)
	add("T2", "SA-1100 RSA connection set-up latency", "0.5 s and 1 s feasible, 0.1 s not",
		fmt.Sprintf("handshake %.2f s; 0.5s=%v 0.1s=%v", hsSec, okHalf, okTenth),
		okHalf && !okTenth)

	// ---- F4 / T3: battery ---------------------------------------------
	fig, err := mobilesec.ComputeBatteryFigure()
	die(err)
	plainTx := fig.Modes[0].Transactions
	secureTx := fig.Modes[1].Transactions
	ratio := fig.Modes[1].RelativeToPlain
	add("F4", "1 KB transactions per 26 KJ battery", "≈726k plain / ≈334k secure",
		fmt.Sprintf("%d / %d", plainTx, secureTx),
		plainTx > 700_000 && plainTx < 750_000 && secureTx > 320_000 && secureTx < 350_000)
	add("T3", "secure-mode transaction count", "less than half of plain",
		fmt.Sprintf("%.2fx", ratio), ratio < 0.5 && ratio > 0.4)

	// ---- T4: processor ladder ------------------------------------------
	ladderOK := true
	for _, want := range []struct {
		name string
		mips float64
	}{
		{"DragonBall-68EC000", 2.7}, {"ARM7-cell-phone", 20},
		{"StrongARM-SA1100", 235}, {"Pentium4-2.6GHz", 2890},
	} {
		p, err := mobilesec.ProcessorByName(want.name)
		if err != nil || p.MIPS != want.mips {
			ladderOK = false
		}
	}
	add("T4", "MIPS ladder 2.7/20/235/2890", "catalog matches §3.2", "catalog verified", ladderOK)

	// ---- B1: accelerator ablation ---------------------------------------
	rows, err := mobilesec.AcceleratorAblation(sa1100)
	die(err)
	add("B1", "HW acceleration closes the 10 Mbps gap",
		"sw infeasible → protocol engine feasible",
		fmt.Sprintf("sw %.0f MIPS (feasible=%v) → engine %.0f MIPS (feasible=%v)",
			rows[0].DemandMIPS, rows[0].Feasible,
			rows[len(rows)-1].DemandMIPS, rows[len(rows)-1].Feasible),
		!rows[0].Feasible && rows[len(rows)-1].Feasible)

	// ---- B4: queue-level consistency ------------------------------------
	sw := mobilesec.SoftwarePacketServer(sa1100, cost.DES3, cost.SHA1, 2000)
	pkts, err := mobilesec.CBRStream(10, 1500, 50)
	die(err)
	_, swStats, err := mobilesec.SimulatePacketQueue(sw, pkts)
	die(err)
	analyticMax, err := mobilesec.SoftwareOnly(sa1100).MaxRateMbps(1e12, cost.HandshakeRSA1024, cost.DES3, cost.SHA1)
	die(err)
	add("B4", "queue simulation agrees with analytic max rate",
		fmt.Sprintf("≈%.1f Mbps sustained", analyticMax),
		fmt.Sprintf("%.1f Mbps sustained", swStats.ThroughputMbps),
		math.Abs(swStats.ThroughputMbps-analyticMax) < 0.4)

	// ---- A1: timing attack (reduced size for speed) ---------------------
	{
		rng := prng.NewDRBG([]byte("repro-timing"))
		n := new(big.Int).SetBytes(rng.Bytes(32))
		n.SetBit(n, 255, 1)
		n.SetBit(n, 0, 1)
		ctx, err := mp.NewMontCtx(n)
		die(err)
		secret := new(big.Int).SetBytes(rng.Bytes(3))
		secret.SetBit(secret, 23, 1)
		secret.SetBit(secret, 0, 1)
		bases := make([]*big.Int, 4000)
		for i := range bases {
			x := new(big.Int).SetBytes(rng.Bytes(32))
			bases[i] = x.Mod(x, n)
		}
		res, err := timing.RecoverExponent(ctx, timing.LeakyOracle(ctx, secret, nil), 24, bases)
		die(err)
		ct, err := timing.RecoverExponent(ctx, timing.ConstTimeOracle(ctx, secret, nil), 24, bases)
		die(err)
		add("A1", "timing attack on leaky modexp; ladder immune",
			"recover 24-bit exponent; fail vs ladder",
			fmt.Sprintf("leaky match=%v, ladder match=%v", res.Recovered.Cmp(secret) == 0, ct.Recovered.Cmp(secret) == 0),
			res.Recovered.Cmp(secret) == 0 && ct.Recovered.Cmp(secret) != 0)

		// A5: SPA single-trace read-out.
		_, trace := ctx.ModExpWithTrace(big.NewInt(7), secret, nil)
		got, err := spa.RecoverExponent(ctx, trace)
		add("A5", "SPA reads exponent from one trace", "full recovery",
			fmt.Sprintf("match=%v", err == nil && got.Cmp(secret) == 0),
			err == nil && got.Cmp(secret) == 0)
	}

	// ---- A2: DPA ----------------------------------------------------------
	{
		key := []byte("sixteen byte key")
		rng := prng.NewDRBG([]byte("repro-dpa"))
		ts, err := dpa.CollectAES(key, 300, 0.5, rng, false)
		die(err)
		got, _, err := dpa.AttackAES(ts)
		die(err)
		masked, err := dpa.CollectAES(key, 300, 0.5, rng, true)
		die(err)
		gotM, _, err := dpa.AttackAES(masked)
		die(err)
		add("A2", "DPA on AES round 1; masking immune", "recover key; fail vs masking",
			fmt.Sprintf("plain match=%v, masked match=%v", bytes.Equal(got, key), bytes.Equal(gotM, key)),
			bytes.Equal(got, key) && !bytes.Equal(gotM, key))
	}

	// ---- A3: fault attack --------------------------------------------------
	{
		key, err := rsa.GenerateKey(prng.NewDRBG([]byte("repro-fault")), 512)
		die(err)
		digest := sha1.Sum([]byte("m"))
		faulty, err := rsa.SignPKCS1(key, "sha1", digest[:], &rsa.Options{Fault: &rsa.Fault{FlipBit: 9}})
		die(err)
		factor, ferr := fault.FactorFromFaultySignature(&key.PublicKey, "sha1", digest[:], faulty)
		_, verr := rsa.SignPKCS1(key, "sha1", digest[:],
			&rsa.Options{Fault: &rsa.Fault{FlipBit: 9}, VerifyAfterSign: true})
		factored := ferr == nil && (factor.Cmp(key.P) == 0 || factor.Cmp(key.Q) == 0)
		add("A3", "one CRT glitch factors N; verify-before-release immune",
			"factor recovered; hardened card refuses",
			fmt.Sprintf("factored=%v, hardened err=%v", factored, verr == rsa.ErrFaultDetected),
			factored && verr == rsa.ErrFaultDetected)
	}

	// ---- A4: WEP / FMS -------------------------------------------------------
	{
		key := []byte{0x05, 0x13, 0x42, 0xAD, 0x77}
		rng := prng.NewDRBG([]byte("repro-fms"))
		var frames [][]byte
		payload := make([]byte, 16)
		for b := 0; b < len(key); b++ {
			for x := 0; x < 256; x++ {
				iv := [3]byte{byte(b + 3), 255, byte(x)}
				payload[0] = 0xAA
				rng.Read(payload[1:])
				f, err := wep.SealWithIV(key, iv, payload)
				die(err)
				frames = append(frames, f)
			}
		}
		ref, err := wep.SealWithIV(key, [3]byte{70, 1, 2}, []byte("reference"))
		die(err)
		verify := func(k []byte) bool {
			got, err := wep.Open(k, ref)
			return err == nil && bytes.Equal(got, []byte("reference"))
		}
		res, ferr := wepattack.FMSRecoverKey(frames, 0xAA, len(key), verify)
		recovered := ferr == nil && bytes.Equal(res.Key, key)

		// Mitigated traffic: filter the weak class.
		var filtered [][]byte
		for _, f := range frames {
			iv, _ := wep.FrameIV(f)
			if !wep.IsWeakIV(iv, len(key)) {
				filtered = append(filtered, f)
			}
		}
		_, merr := wepattack.FMSRecoverKey(filtered, 0xAA, len(key), verify)
		add("A4", "FMS recovers WEP-40 key; weak-IV filtering blunts it",
			"recover from weak IVs; fail when filtered",
			fmt.Sprintf("recovered=%v, filtered err=%v", recovered, merr != nil),
			recovered && merr != nil)
	}

	// ---- report -----------------------------------------------------------
	sp.SetN(int64(len(checks)))
	sp.End()
	fmt.Println("paper reproduction self-check")
	fmt.Println("=============================")
	failures := 0
	for _, c := range checks {
		status := "PASS"
		if !c.pass {
			status = "FAIL"
			failures++
		}
		fmt.Printf("[%s] %-4s %-52s\n        paper: %s\n        here : %s\n",
			status, c.id, c.claim, c.expected, c.measured)
	}
	fmt.Printf("\n%d/%d checks passed\n", len(checks)-failures, len(checks))
	if failures > 0 {
		o.Close()
		os.Exit(1)
	}
	o.Finish("paperrepro")
}

func die(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "paperrepro: %v\n", err)
		os.Exit(1)
	}
}
