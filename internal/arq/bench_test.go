package arq_test

import (
	"bytes"
	"io"
	"testing"
	"time"

	"repro/internal/arq"
	"repro/internal/chaos"
	"repro/internal/stack"
)

// BenchmarkARQ is the link rung: one 1 KiB echo over two go-back-N
// endpoints (window 8, 10 ms timer, the composed stack's ARQ settings) on
// chaos.FaultyTransport over an in-memory pipe. The lossy case drops
// 0.1 % of frames and flips bits at BER 1e-5 under fixed fault seeds, the
// perfbench stack-lossy mix, so it prices ARQ recovery alone; retx/op,
// naks/op and probes/op report the resent DATA frames, the NAKs sent and
// the tail-loss probes (also in retx/op) per echo.
func BenchmarkARQ(b *testing.B) {
	cfg := arq.Config{Window: 8, RetransmitTimeout: 10 * time.Millisecond, MaxRetries: 25}
	for _, bc := range []struct {
		name      string
		drop, ber float64
	}{{"clean", 0, 0}, {"lossy", 0.001, 1e-5}} {
		b.Run(bc.name, func(b *testing.B) {
			a, g := stack.Pipe()
			ta, err := chaos.New(a, chaos.Config{Seed: 0xa9c1, Drop: bc.drop, BER: bc.ber})
			if err != nil {
				b.Fatal(err)
			}
			tg, err := chaos.New(g, chaos.Config{Seed: 0xa9c2, Drop: bc.drop, BER: bc.ber})
			if err != nil {
				b.Fatal(err)
			}
			ea, err := arq.New(ta, cfg)
			if err != nil {
				b.Fatal(err)
			}
			eg, err := arq.New(tg, cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer ea.Close()
			defer eg.Close()
			go func() { // echo until the link closes
				buf := make([]byte, 4096)
				for {
					n, err := eg.Read(buf)
					if err == nil {
						_, err = eg.Write(buf[:n])
					}
					if err != nil {
						return
					}
				}
			}()
			req := bytes.Repeat([]byte("txn:1.99;"), 114)[:1024]
			reply := make([]byte, len(req))
			sum := func() (retx, naks, probes int) {
				sa, sg := ea.Stats(), eg.Stats()
				return sa.Retransmits + sg.Retransmits, sa.NaksSent + sg.NaksSent, sa.Probes + sg.Probes
			}
			retx0, naks0, probes0 := sum()
			b.SetBytes(int64(len(req)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ea.Write(req); err != nil {
					b.Fatal(err)
				}
				if _, err := io.ReadFull(ea, reply); err != nil {
					b.Fatal(err)
				}
				if !bytes.Equal(reply, req) {
					b.Fatal("echo mismatch")
				}
			}
			b.StopTimer()
			retx, naks, probes := sum()
			b.ReportMetric(float64(retx-retx0)/float64(b.N), "retx/op")
			b.ReportMetric(float64(naks-naks0)/float64(b.N), "naks/op")
			b.ReportMetric(float64(probes-probes0)/float64(b.N), "probes/op")
		})
	}
}
