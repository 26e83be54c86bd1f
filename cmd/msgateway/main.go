// Command msgateway serves WTLS sessions over real TCP sockets — the
// wireless-gateway half of the paper's m-commerce scenario, run as a
// long-lived concurrent server instead of a single in-memory pipe.
//
// It derives a deterministic dev PKI from -pki-seed (msload derives the
// identical CA from the same seed, so no key files change hands),
// accepts up to -max-conns concurrent sessions on a bounded worker
// pool, and echoes application records until the peer closes. SIGTERM
// or SIGINT starts a graceful drain: the listener closes, in-flight
// sessions get -drain-timeout to finish, stragglers are force-closed,
// and the process exits 0 only if the drain was fully graceful.
//
// Observability rides the standard flags (-metrics, -journal, -slo,
// -pprof …); with -pprof the live /progress endpoint reports sessions
// served, so a soak can be watched in flight. With -dtrace
// the server adopts the trace context a tracing msload sends in its
// first application record and records its half of each sampled
// session — queue wait, handshake phases, record batches — under the
// client's span tree; per-session wide journal events carry the trace
// ID for cross-linking.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/gateway"
	"repro/internal/obs"
	"repro/internal/wtls"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:4433", "listen address")
	maxConns := flag.Int("max-conns", 1024, "concurrent connection cap (accept backpressure beyond it)")
	workers := flag.Int("workers", 128, "session worker pool size")
	hsTimeout := flag.Duration("handshake-timeout", 10*time.Second, "per-connection handshake deadline")
	idleTimeout := flag.Duration("idle-timeout", 30*time.Second, "established-session idle deadline")
	drainTimeout := flag.Duration("drain-timeout", 5*time.Second, "graceful-drain budget on shutdown")
	pkiSeed := flag.String("pki-seed", "mobilesec-dev", "deterministic dev PKI seed (must match msload)")
	rsaBits := flag.Int("rsa-bits", 512, "dev PKI modulus size")
	serverName := flag.String("server-name", "gw.local", "certificate subject")
	resume := flag.Bool("resume", true, "enable session resumption")
	o := obs.BindFlags(flag.CommandLine)
	flag.Parse()
	if err := o.Activate(); err != nil {
		fmt.Fprintf(os.Stderr, "msgateway: %v\n", err)
		os.Exit(1)
	}
	defer o.Close()

	_, key, cert, err := gateway.DevPKI(*pkiSeed, *serverName, *rsaBits)
	if err != nil {
		fmt.Fprintf(os.Stderr, "msgateway: %v\n", err)
		os.Exit(1)
	}
	wcfg := &wtls.Config{Certificate: cert, PrivateKey: key}
	if *resume {
		wcfg.SessionCache = wtls.NewSessionCache()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "msgateway: %v\n", err)
		os.Exit(1)
	}
	srv, err := gateway.Serve(ln, gateway.Config{
		WTLS:             wcfg,
		RandSeed:         []byte(*pkiSeed + "/gateway-rand"),
		MaxConns:         *maxConns,
		Workers:          *workers,
		HandshakeTimeout: *hsTimeout,
		IdleTimeout:      *idleTimeout,
		DrainTimeout:     *drainTimeout,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "msgateway: %v\n", err)
		os.Exit(1)
	}
	obs.SetProgressSource(srv.Progress)
	fmt.Printf("msgateway: listening on %s (max-conns %d, workers %d)\n",
		srv.Addr(), *maxConns, *workers)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	s := <-sig
	fmt.Printf("msgateway: %v — draining (budget %v)\n", s, *drainTimeout)

	shutdownErr := srv.Shutdown(context.Background())
	st := srv.Stats()
	fmt.Printf("msgateway: served %d sessions (%d handshakes, %d failures, peak %d active, %d forced closes)\n",
		st.SessionsDone, st.Handshakes, st.HandshakeFailures, st.PeakActive, st.ForcedCloses)
	o.Finish("msgateway")
	if shutdownErr != nil {
		fmt.Fprintf(os.Stderr, "msgateway: %v\n", shutdownErr)
		os.Exit(1)
	}
}
