// Command msload soaks a running msgateway with concurrent WTLS
// sessions over real TCP, optionally through socket-level chaos
// (silent drops, bit corruption, stalls, Gilbert–Elliott bursts), and
// reports handshakes/sec, records/sec and latency percentiles.
//
// It derives the gateway's CA from the shared -pki-seed, so pointing it
// at a gateway started with the same seed just works. Failed attempts
// are retried with capped exponential backoff and deterministic jitter;
// the whole run — client randoms, fault schedules, retry delays — is a
// pure function of -seed. Exit status: 0 on full success, 1 if any
// session exhausted its retry budget, 3 if -slo-strict tripped.
//
// With -dtrace each sampled session (-trace-sample) records a span
// tree — attempts, dials, backoff waits, handshake phases, record
// batches — and hands its trace context to the gateway in the first
// application record, so the msload and msgateway halves merge into one
// end-to-end trace in msreport. Trace IDs derive from -seed, so the
// exported structure is identical at any -concurrency (-dtrace-canon
// strips timings for byte-diffing).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/chaos"
	"repro/internal/gateway"
	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/wtls"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:4433", "gateway address")
	conns := flag.Int("conns", 100, "total sessions to complete")
	concurrency := flag.Int("concurrency", 16, "closed-loop worker count")
	records := flag.Int("records", 4, "echo round-trips per session")
	payload := flag.Int("payload", 256, "bytes per record")
	burst := flag.Int("burst", 1, "records written back-to-back per round-trip (engages the batched record path)")
	seed := flag.Int64("seed", 1, "master seed for all client-side randomness")
	attempts := flag.Int("attempts", 5, "max tries per session (connect+handshake+echo)")
	dialTimeout := flag.Duration("dial-timeout", 5*time.Second, "TCP connect deadline")
	ioTimeout := flag.Duration("io-timeout", 10*time.Second, "handshake / per-record deadline")
	pkiSeed := flag.String("pki-seed", "mobilesec-dev", "deterministic dev PKI seed (must match msgateway)")
	rsaBits := flag.Int("rsa-bits", 512, "dev PKI modulus size")
	serverName := flag.String("server-name", "gw.local", "expected certificate subject")
	resume := flag.Bool("resume", false, "share a session cache across workers")

	chDrop := flag.Float64("chaos-drop", 0, "per-chunk silent drop probability")
	chCorrupt := flag.Float64("chaos-corrupt", 0, "per-chunk bit-corruption probability")
	chStallP := flag.Float64("chaos-stall-prob", 0, "per-chunk stall probability")
	chStall := flag.Duration("chaos-stall", 50*time.Millisecond, "stall duration")
	chPGB := flag.Float64("chaos-burst-pgb", 0, "Gilbert–Elliott P(good→bad); 0 disables bursts")
	chPBG := flag.Float64("chaos-burst-pbg", 0.3, "Gilbert–Elliott P(bad→good)")
	chLossBad := flag.Float64("chaos-burst-loss", 0.5, "drop probability in the bad state")
	o := obs.BindFlags(flag.CommandLine)
	flag.Parse()
	if err := o.Activate(); err != nil {
		fmt.Fprintf(os.Stderr, "msload: %v\n", err)
		os.Exit(1)
	}
	defer o.Close()

	ca, _, _, err := gateway.DevPKI(*pkiSeed, *serverName, *rsaBits)
	if err != nil {
		fmt.Fprintf(os.Stderr, "msload: %v\n", err)
		os.Exit(1)
	}
	wcfg := &wtls.Config{RootCA: &ca.Key.PublicKey, ServerName: *serverName}
	if *resume {
		wcfg.SessionCache = wtls.NewSessionCache()
	}

	var cc *chaos.ConnConfig
	if *chDrop > 0 || *chCorrupt > 0 || *chStallP > 0 || *chPGB > 0 {
		cc = &chaos.ConnConfig{
			Drop: *chDrop, Corrupt: *chCorrupt,
			StallProb: *chStallP, Stall: *chStall,
		}
		if *chPGB > 0 {
			cc.Burst = &chaos.Burst{PGoodToBad: *chPGB, PBadToGood: *chPBG, LossBad: *chLossBad}
		}
	}

	r, err := loadgen.New(loadgen.Config{
		Addr: *addr, WTLS: wcfg,
		Conns: *conns, Concurrency: *concurrency,
		Records: *records, Payload: *payload, Burst: *burst,
		Seed: *seed, Chaos: cc, Attempts: *attempts,
		DialTimeout: *dialTimeout, IOTimeout: *ioTimeout,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "msload: %v\n", err)
		os.Exit(1)
	}
	obs.SetProgressSource(r.Progress)

	rep := r.Run()
	fmt.Printf("msload: %s\n", rep)
	if rep.Failed > 0 && r.LastErr() != nil {
		fmt.Fprintf(os.Stderr, "msload: last failure: %v\n", r.LastErr())
	}
	o.Finish("msload")
	if rep.Failed > 0 {
		os.Exit(1)
	}
}
