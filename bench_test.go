package mobilesec

// Benchmark harness: one benchmark per paper figure, in-text claim and
// attack experiment (the per-experiment index lives in DESIGN.md; the
// measured-vs-paper numbers in EXPERIMENTS.md). Each benchmark both
// exercises the regeneration path under the Go benchmark driver and
// reports the figure's headline quantities as custom metrics.

import (
	"bytes"
	"io"
	"math/big"
	"testing"

	"repro/internal/attack/dpa"
	"repro/internal/attack/fault"
	"repro/internal/attack/spa"
	"repro/internal/attack/timing"
	"repro/internal/attack/wepattack"
	"repro/internal/bearer"
	"repro/internal/cost"
	"repro/internal/crypto/aes"
	"repro/internal/crypto/des"
	"repro/internal/crypto/md5"
	"repro/internal/crypto/modes"
	"repro/internal/crypto/mp"
	"repro/internal/crypto/prng"
	"repro/internal/crypto/rc4"
	"repro/internal/crypto/rsa"
	"repro/internal/crypto/sha1"
	"repro/internal/wep"
	"repro/internal/wtls"
)

// BenchmarkFig2ProtocolEvolution regenerates the Figure 2 timeline and
// reports the wired-vs-wireless revision rates.
func BenchmarkFig2ProtocolEvolution(b *testing.B) {
	var wired, wireless float64
	for i := 0; i < b.N; i++ {
		tl := EvolutionTimeline()
		if len(tl) == 0 {
			b.Fatal("empty timeline")
		}
		var err error
		wired, err = RevisionRate("SSL/TLS")
		if err != nil {
			b.Fatal(err)
		}
		wireless, err = RevisionRate("WTLS")
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(wired, "wired-rev/yr")
	b.ReportMetric(wireless, "wireless-rev/yr")
}

// BenchmarkFig3SecurityProcessingGap regenerates the Figure 3 surface
// against the paper's 300-MIPS plane and reports its headline numbers.
func BenchmarkFig3SecurityProcessingGap(b *testing.B) {
	var s *GapSurface
	for i := 0; i < b.N; i++ {
		var err error
		s, err = ComputeGapSurface(DefaultLatencies(), DefaultRates(), 300)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(s.GapFraction()*100, "gap-%-of-envelope")
	b.ReportMetric(s.MaxFeasibleRate(0.5), "max-Mbps@0.5s")
	// Bulk-only anchor at 10 Mbps.
	d, err := cost.DemandMIPS(1e9, 10, HandshakeRSA1024, Alg3DES, AlgSHA1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(d, "MIPS@10Mbps-bulk")
}

// BenchmarkFig4BatteryLife regenerates Figure 4 and reports the
// transaction counts and their ratio (< 0.5 per the paper).
func BenchmarkFig4BatteryLife(b *testing.B) {
	var fig *BatteryFigure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = ComputeBatteryFigure()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(fig.Modes[0].Transactions), "plain-tx")
	b.ReportMetric(float64(fig.Modes[1].Transactions), "secure-tx")
	b.ReportMetric(fig.Modes[1].RelativeToPlain, "secure/plain")
}

// BenchmarkFig4BatteryLifeSimulated runs the transaction-by-transaction
// battery drain cross-check.
func BenchmarkFig4BatteryLifeSimulated(b *testing.B) {
	var fig *BatteryFigure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = SimulateBatteryFigure(100)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(fig.Modes[1].Transactions), "secure-tx-sim")
}

// BenchmarkT1BulkDemand measures the 3DES+SHA bulk demand claim
// (651.3 MIPS at 10 Mbps).
func BenchmarkT1BulkDemand(b *testing.B) {
	var mips float64
	for i := 0; i < b.N; i++ {
		mips = 10e6 / 8 * cost.BulkInstrPerByte(Alg3DES, AlgSHA1) / 1e6
	}
	b.ReportMetric(mips, "MIPS")
}

// BenchmarkT2HandshakeFeasibility measures the SA-1100 handshake-latency
// claim (0.5 s and 1 s feasible, 0.1 s not).
func BenchmarkT2HandshakeFeasibility(b *testing.B) {
	cpu, err := ProcessorByName("StrongARM-SA1100")
	if err != nil {
		b.Fatal(err)
	}
	arch := SoftwareOnly(cpu)
	var okHalf, okTenth bool
	for i := 0; i < b.N; i++ {
		okHalf, err = arch.Feasible(0.5, 0.001, HandshakeRSA1024, Alg3DES, AlgSHA1)
		if err != nil {
			b.Fatal(err)
		}
		okTenth, err = arch.Feasible(0.1, 0.001, HandshakeRSA1024, Alg3DES, AlgSHA1)
		if err != nil {
			b.Fatal(err)
		}
	}
	if !okHalf || okTenth {
		b.Fatalf("feasibility pattern wrong: 0.5s=%v 0.1s=%v", okHalf, okTenth)
	}
	h, _ := cost.HandshakeInstr(HandshakeRSA1024)
	b.ReportMetric(h/235e6, "handshake-sec-on-SA1100")
}

// BenchmarkB1AcceleratorAblation runs the Section 4.2 architecture ladder
// at the Figure 3 anchor workload.
func BenchmarkB1AcceleratorAblation(b *testing.B) {
	cpu, err := ProcessorByName("StrongARM-SA1100")
	if err != nil {
		b.Fatal(err)
	}
	var rows []ArchitectureGapRow
	for i := 0; i < b.N; i++ {
		rows, err = AcceleratorAblation(cpu)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].DemandMIPS, "sw-only-MIPS")
	b.ReportMetric(rows[len(rows)-1].DemandMIPS, "protocol-engine-MIPS")
	b.ReportMetric(rows[len(rows)-1].MaxRateMbps, "protocol-engine-max-Mbps")
}

// BenchmarkA1TimingAttack mounts the full timing attack (reduced exponent
// size to keep one iteration in benchmark range) and verifies recovery.
func BenchmarkA1TimingAttack(b *testing.B) {
	rng := prng.NewDRBG([]byte("bench-timing"))
	n := new(big.Int).SetBytes(rng.Bytes(32))
	n.SetBit(n, 255, 1)
	n.SetBit(n, 0, 1)
	ctx, err := mp.NewMontCtx(n)
	if err != nil {
		b.Fatal(err)
	}
	secret := new(big.Int).SetBytes(rng.Bytes(2))
	secret.SetBit(secret, 15, 1)
	secret.SetBit(secret, 0, 1)
	bases := make([]*big.Int, 3000)
	for i := range bases {
		x := new(big.Int).SetBytes(rng.Bytes(32))
		bases[i] = x.Mod(x, n)
	}
	oracle := timing.LeakyOracle(ctx, secret, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := timing.RecoverExponent(ctx, oracle, 16, bases)
		if err != nil {
			b.Fatal(err)
		}
		if res.Recovered.Cmp(secret) != 0 {
			b.Fatalf("attack failed: %x != %x", res.Recovered, secret)
		}
	}
}

// BenchmarkA2DPA mounts the AES correlation power attack.
func BenchmarkA2DPA(b *testing.B) {
	key := []byte("sixteen byte key")
	rng := prng.NewDRBG([]byte("bench-dpa"))
	ts, err := dpa.CollectAES(key, 300, 0.5, rng, false)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, _, err := dpa.AttackAES(ts)
		if err != nil {
			b.Fatal(err)
		}
		if !bytes.Equal(got, key) {
			b.Fatal("DPA failed")
		}
	}
}

// BenchmarkA3FaultAttack mounts the Boneh-DeMillo-Lipton factorization.
func BenchmarkA3FaultAttack(b *testing.B) {
	key, err := rsa.GenerateKey(prng.NewDRBG([]byte("bench-fault")), 512)
	if err != nil {
		b.Fatal(err)
	}
	digest := sha1.Sum([]byte("bench"))
	faulty, err := rsa.SignPKCS1(key, "sha1", digest[:], &rsa.Options{Fault: &rsa.Fault{FlipBit: 5}})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		factor, err := fault.FactorFromFaultySignature(&key.PublicKey, "sha1", digest[:], faulty)
		if err != nil {
			b.Fatal(err)
		}
		if factor.Cmp(key.P) != 0 && factor.Cmp(key.Q) != 0 {
			b.Fatal("not a factor")
		}
	}
}

// BenchmarkA4WEPAttacks mounts the FMS key recovery from weak-IV traffic.
func BenchmarkA4WEPAttacks(b *testing.B) {
	key := []byte{0x05, 0x13, 0x42, 0xAD, 0x77}
	rng := prng.NewDRBG([]byte("bench-fms"))
	var frames [][]byte
	payload := make([]byte, 16)
	for kb := 0; kb < len(key); kb++ {
		for x := 0; x < 256; x++ {
			iv := [3]byte{byte(kb + 3), 255, byte(x)}
			payload[0] = 0xAA
			rng.Read(payload[1:])
			f, err := wep.SealWithIV(key, iv, payload)
			if err != nil {
				b.Fatal(err)
			}
			frames = append(frames, f)
		}
	}
	ref, _ := wep.SealWithIV(key, [3]byte{99, 1, 2}, []byte("reference plain"))
	verify := func(k []byte) bool {
		got, err := wep.Open(k, ref)
		return err == nil && bytes.Equal(got, []byte("reference plain"))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := wepattack.FMSRecoverKey(frames, 0xAA, len(key), verify)
		if err != nil {
			b.Fatal(err)
		}
		if !bytes.Equal(res.Key, key) {
			b.Fatal("FMS failed")
		}
	}
}

// BenchmarkWTLSHandshake measures the real (wall-clock) cost of a full
// WTLS handshake on this machine, client and server together.
func BenchmarkWTLSHandshake(b *testing.B) {
	benchHandshakes(b, nil, nil)
}

// BenchmarkWTLSHandshakeResumed measures an abbreviated handshake that
// resumes a cached session. It does no RSA work, so the DRBG, the PRF and
// the Finished MACs set its cost.
func BenchmarkWTLSHandshakeResumed(b *testing.B) {
	benchHandshakes(b, NewSessionCache(), NewSessionCache())
}

// benchHandshakes runs one client+server handshake per iteration over an
// in-memory pipe. With caches, one untimed full handshake primes them and
// every timed one must resume.
func benchHandshakes(b *testing.B, clientCache, serverCache *SessionCache) {
	ca, err := NewCA("BenchRoot", NewDRBG([]byte("bench-ca")), 512)
	if err != nil {
		b.Fatal(err)
	}
	key, err := GenerateRSAKey(NewDRBG([]byte("bench-server")), 512)
	if err != nil {
		b.Fatal(err)
	}
	cert, err := ca.Issue("bench.example", 1, &key.PublicKey)
	if err != nil {
		b.Fatal(err)
	}
	handshake := func(i int, wantResumed bool) {
		cp, sp := newBenchPipe()
		client := WTLSClient(cp, &Config{
			Rand:         NewDRBG([]byte{byte(i)}),
			RootCA:       &ca.Key.PublicKey,
			ServerName:   "bench.example",
			SessionCache: clientCache,
		})
		server := WTLSServer(sp, &Config{
			Rand:         NewDRBG([]byte{byte(i), 1}),
			Certificate:  cert,
			PrivateKey:   key,
			SessionCache: serverCache,
		})
		errCh := make(chan error, 1)
		go func() { errCh <- server.Handshake() }()
		if err := client.Handshake(); err != nil {
			b.Fatal(err)
		}
		if err := <-errCh; err != nil {
			b.Fatal(err)
		}
		if client.State().Resumed != wantResumed {
			b.Fatalf("handshake %d: resumed = %v, want %v", i, !wantResumed, wantResumed)
		}
	}
	resume := clientCache != nil
	if resume {
		handshake(-1, false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		handshake(i, resume)
	}
}

// BenchmarkStackTxn is the composed-stack rung: one 1 KiB 3DES WTLS echo
// over ESP, WEP and ARQ (window 8, 10 ms timer) on an in-memory pipe, the
// paper's Figure 5 handset hierarchy. The lossy case drops 0.1 % of frames
// and flips bits at BER 1e-5 under a fixed fault seed, so it also prices
// ARQ recovery; retx/op reports the resent frames per echo.
func BenchmarkStackTxn(b *testing.B) {
	ca, err := NewCA("BenchRoot", NewDRBG([]byte("bench-ca")), 512)
	if err != nil {
		b.Fatal(err)
	}
	key, err := GenerateRSAKey(NewDRBG([]byte("bench-server")), 512)
	if err != nil {
		b.Fatal(err)
	}
	cert, err := ca.Issue("bench.example", 1, &key.PublicKey)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name      string
		drop, ber float64
	}{{"clean", 0, 0}, {"lossy", 0.001, 1e-5}} {
		b.Run(bc.name, func(b *testing.B) {
			pdaLink, gwLink := NewDuplexPipe()
			pda, pdaARQ, _ := buildLossyStack(b, pdaLink, FaultConfig{Seed: 0x57ac1, Drop: bc.drop, BER: bc.ber}, "p2g", "g2p")
			gw, gwARQ, _ := buildLossyStack(b, gwLink, FaultConfig{Seed: 0x57ac2, Drop: bc.drop, BER: bc.ber}, "g2p", "p2g")
			defer pdaARQ.Close()
			defer gwARQ.Close()
			client := WTLSClient(pda.Top(), &Config{
				Rand: NewDRBG([]byte("bench-handset")), RootCA: &ca.Key.PublicKey, ServerName: "bench.example",
				Suites: []uint16{0x000A}, // RSA_WITH_3DES_EDE_CBC_SHA, as perfbench stack-lossy pins
			})
			server := WTLSServer(gw.Top(), &Config{
				Rand: NewDRBG([]byte("bench-gateway")), Certificate: cert, PrivateKey: key,
			})
			go func() { // gateway: echo until the link closes
				buf := make([]byte, 4096)
				for {
					n, err := server.Read(buf)
					if err == nil {
						_, err = server.Write(buf[:n])
					}
					if err != nil {
						return
					}
				}
			}()
			if err := client.Handshake(); err != nil {
				b.Fatal(err)
			}
			req := bytes.Repeat([]byte("txn:1.99;"), 114)[:1024]
			reply := make([]byte, len(req))
			retx0 := pdaARQ.Stats().Retransmits + gwARQ.Stats().Retransmits
			b.SetBytes(int64(len(req)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := client.Write(req); err != nil {
					b.Fatal(err)
				}
				if _, err := io.ReadFull(client, reply); err != nil {
					b.Fatal(err)
				}
				if !bytes.Equal(reply, req) {
					b.Fatal("echo mismatch")
				}
			}
			b.StopTimer()
			retx := pdaARQ.Stats().Retransmits + gwARQ.Stats().Retransmits - retx0
			b.ReportMetric(float64(retx)/float64(b.N), "retx/op")
		})
	}
}

// BenchmarkRecordProtection measures record-layer throughput for the
// paper's reference suite (3DES+SHA) on this machine.
func BenchmarkRecordProtection(b *testing.B) {
	ca, _ := NewCA("BenchRoot", NewDRBG([]byte("bench-ca2")), 512)
	key, _ := GenerateRSAKey(NewDRBG([]byte("bench-server2")), 512)
	cert, _ := ca.Issue("bench.example", 1, &key.PublicKey)
	cp, sp := newBenchPipe()
	client := WTLSClient(cp, &Config{
		Rand:       NewDRBG([]byte("c")),
		RootCA:     &ca.Key.PublicKey,
		ServerName: "bench.example",
		Suites:     []uint16{0x000A}, // RSA_WITH_3DES_EDE_CBC_SHA
	})
	server := WTLSServer(sp, &Config{
		Rand:        NewDRBG([]byte("s")),
		Certificate: cert,
		PrivateKey:  key,
	})
	errCh := make(chan error, 1)
	go func() { errCh <- server.Handshake() }()
	if err := client.Handshake(); err != nil {
		b.Fatal(err)
	}
	if err := <-errCh; err != nil {
		b.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		buf := make([]byte, 4096)
		for {
			if _, err := server.Read(buf); err != nil {
				close(done)
				return
			}
		}
	}()
	msg := make([]byte, 1024)
	b.SetBytes(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Write(msg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	client.Close()
	<-done
	_ = wtls.AlertCloseNotify
}

// BenchmarkA5SPA mounts the simple-power-analysis attack: one trace of a
// leaky 512-bit exponentiation yields the whole exponent.
func BenchmarkSPAAttack(b *testing.B) {
	rng := prng.NewDRBG([]byte("bench-spa"))
	n := new(big.Int).SetBytes(rng.Bytes(64))
	n.SetBit(n, 511, 1)
	n.SetBit(n, 0, 1)
	ctx, err := mp.NewMontCtx(n)
	if err != nil {
		b.Fatal(err)
	}
	secret := new(big.Int).SetBytes(rng.Bytes(64))
	secret.SetBit(secret, 511, 1)
	_, trace := ctx.ModExpWithTrace(big.NewInt(7), secret, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := spa.RecoverExponent(ctx, trace)
		if err != nil {
			b.Fatal(err)
		}
		if got.Cmp(secret) != 0 {
			b.Fatal("SPA failed")
		}
	}
}

// BenchmarkBearerA5Throughput measures the from-scratch A5/1 keystream
// generator (both 114-bit bursts per frame).
func BenchmarkBearerA5Throughput(b *testing.B) {
	key := [8]byte{0x12, 0x23, 0x45, 0x67, 0x89, 0xAB, 0xCD, 0xEF}
	b.SetBytes(2 * bearer.FrameBytes)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bearer.A5Frame(key, uint32(i)&0x3fffff)
	}
}

// BenchmarkAdaptiveLifetime runs the battery-aware-security comparison
// (Section 3.3) and reports the lifetime gain.
func BenchmarkAdaptiveLifetime(b *testing.B) {
	cpu, err := ProcessorByName("ARM7-cell-phone")
	if err != nil {
		b.Fatal(err)
	}
	r := NewSensorRadio()
	var res *LifetimeResult
	for i := 0; i < b.N; i++ {
		res, err = CompareAdaptiveLifetime(cpu, r, 500, 0x002F, DefaultAdaptivePolicy(), 16)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.FixedSessions), "fixed-sessions")
	b.ReportMetric(float64(res.AdaptiveSessions), "adaptive-sessions")
	b.ReportMetric(res.Gain, "gain")
}

// BenchmarkCipherThroughput measures this repository's own software
// cipher implementations — the raw material behind the cost model's
// relative orderings (absolute instr/byte values are calibrated to the
// paper's embedded cores, not to this host; see DESIGN.md).
func BenchmarkCipherThroughput(b *testing.B) {
	buf := make([]byte, 4096)
	tdes, err := des.NewTripleCipher(make([]byte, 24))
	if err != nil {
		b.Fatal(err)
	}
	sdes, err := des.NewCipher(make([]byte, 8))
	if err != nil {
		b.Fatal(err)
	}
	aes128, err := aes.NewCipher(make([]byte, 16))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("3des-cbc", func(b *testing.B) { benchCBC(b, tdes, modes.EncryptCBC, buf) })
	b.Run("3des-cbc-dec", func(b *testing.B) { benchCBC(b, tdes, modes.DecryptCBC, buf) })
	b.Run("des-cbc", func(b *testing.B) { benchCBC(b, sdes, modes.EncryptCBC, buf) })
	b.Run("aes128-cbc", func(b *testing.B) { benchCBC(b, aes128, modes.EncryptCBC, buf) })
	b.Run("aes128-cbc-dec", func(b *testing.B) { benchCBC(b, aes128, modes.DecryptCBC, buf) })
	b.Run("rc4", func(b *testing.B) {
		c, err := rc4.NewCipher(make([]byte, 16))
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(4096)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.XORKeyStream(buf, buf)
		}
	})
	b.Run("sha1", func(b *testing.B) {
		b.SetBytes(4096)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sha1.Sum(buf)
		}
	})
	b.Run("md5", func(b *testing.B) {
		b.SetBytes(4096)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			md5.Sum(buf)
		}
	})
}

// benchCBC runs one CBC direction of c over buf with a zero IV.
func benchCBC(b *testing.B, c modes.Block, crypt func(modes.Block, []byte, []byte) ([]byte, error), buf []byte) {
	iv := make([]byte, c.BlockSize())
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := crypt(c, iv, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkB4PacketEngineQueue runs the Section 4.2.3 queueing
// comparison: software vs engine latency for a 10 Mbps 3DES+SHA stream.
func BenchmarkB4PacketEngineQueue(b *testing.B) {
	cpu, err := ProcessorByName("StrongARM-SA1100")
	if err != nil {
		b.Fatal(err)
	}
	sw := SoftwarePacketServer(cpu, Alg3DES, AlgSHA1, 2000)
	eng := EnginePacketServer("packet-engine", 100, 20)
	pkts, err := CBRStream(10, 1500, 50)
	if err != nil {
		b.Fatal(err)
	}
	var swStats, engStats *PacketQueueStats
	for i := 0; i < b.N; i++ {
		_, swStats, err = SimulatePacketQueue(sw, pkts)
		if err != nil {
			b.Fatal(err)
		}
		_, engStats, err = SimulatePacketQueue(eng, pkts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(swStats.MeanLatencyUs, "sw-mean-latency-us")
	b.ReportMetric(engStats.MeanLatencyUs, "engine-mean-latency-us")
	b.ReportMetric(swStats.ThroughputMbps, "sw-throughput-Mbps")
}

// BenchmarkSmartCardSign measures a full PIN-verify + sign APDU exchange
// on the simulated card.
func BenchmarkSmartCardSign(b *testing.B) {
	key, err := GenerateRSAKey(NewDRBG([]byte("bench-card")), 512)
	if err != nil {
		b.Fatal(err)
	}
	card, err := NewSmartCard(SmartCardConfig{PIN: "1234", Key: key, Seed: []byte("b")})
	if err != nil {
		b.Fatal(err)
	}
	if r := card.Process(APDUCommand{INS: 0x20, Data: []byte("1234")}); r.SW != 0x9000 {
		b.Fatalf("verify failed: %04x", r.SW)
	}
	tx := []byte("pay 100 to bob")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := card.Process(APDUCommand{INS: 0x2A, Data: tx}); r.SW != 0x9000 {
			b.Fatalf("sign failed: %04x", r.SW)
		}
	}
}
