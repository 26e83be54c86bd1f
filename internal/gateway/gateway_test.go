package gateway

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"math/big"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/crypto/prng"
	"repro/internal/obs"
	"repro/internal/obs/journal"
	"repro/internal/wtls"
)

const testBits = 512 // fast; security is not under test here

type testEnv struct {
	srv    *Server
	client *wtls.Config
}

// startGateway boots a server on a loopback socket with a deterministic
// dev PKI and returns it plus a ready client config template.
func startGateway(t *testing.T, cfg Config) *testEnv {
	t.Helper()
	ca, key, cert, err := DevPKI("gateway-test", "gw.local", testBits)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.WTLS == nil {
		cfg.WTLS = &wtls.Config{}
	}
	cfg.WTLS.Certificate = cert
	cfg.WTLS.PrivateKey = key
	if cfg.RandSeed == nil {
		cfg.RandSeed = []byte("gateway-test-rand")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(ln, cfg)
	if err != nil {
		ln.Close()
		t.Fatal(err)
	}
	return &testEnv{
		srv: srv,
		client: &wtls.Config{
			RootCA:     &ca.Key.PublicKey,
			ServerName: "gw.local",
		},
	}
}

// dial opens a WTLS client session against the test gateway.
func (e *testEnv) dial(t *testing.T, tag string) (*wtls.Conn, error) {
	t.Helper()
	raw, err := net.Dial("tcp", e.srv.Addr().String())
	if err != nil {
		return nil, err
	}
	cfg := *e.client
	cfg.Rand = prng.NewDRBG([]byte("client/" + tag))
	tc := wtls.Client(raw, &cfg)
	_ = tc.SetDeadline(time.Now().Add(10 * time.Second))
	if err := tc.Handshake(); err != nil {
		raw.Close()
		return nil, err
	}
	_ = tc.SetDeadline(time.Time{})
	return tc, nil
}

func echoOnce(t *testing.T, tc *wtls.Conn, msg string) {
	t.Helper()
	_ = tc.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := tc.Write([]byte(msg)); err != nil {
		t.Fatalf("write: %v", err)
	}
	buf := make([]byte, len(msg))
	got := 0
	for got < len(msg) {
		n, err := tc.Read(buf[got:])
		if err != nil {
			t.Fatalf("read echo: %v", err)
		}
		got += n
	}
	if string(buf) != msg {
		t.Fatalf("echo mismatch: got %q want %q", buf, msg)
	}
}

func TestGatewayEchoAndGracefulShutdown(t *testing.T) {
	env := startGateway(t, Config{Workers: 4, MaxConns: 8, DrainTimeout: 3 * time.Second})
	tc, err := env.dial(t, "echo")
	if err != nil {
		t.Fatal(err)
	}
	echoOnce(t, tc, "over the air, for real this time")
	tc.Close()

	if err := env.srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("graceful shutdown returned %v", err)
	}
	st := env.srv.Stats()
	if st.Handshakes != 1 || st.HandshakeFailures != 0 || st.ForcedCloses != 0 {
		t.Fatalf("stats after clean run: %+v", st)
	}
	if st.EchoBytes == 0 {
		t.Fatalf("no bytes echoed: %+v", st)
	}
}

// TestGatewaySessionWideEvent checks the one-record-per-session journal
// event: every dimension of the session rides a single "session" event
// so reports can slice sessions without joining counters.
func TestGatewaySessionWideEvent(t *testing.T) {
	journal.Default.Reset()
	journal.Default.SetEnabled(true)
	t.Cleanup(func() {
		journal.Default.SetEnabled(false)
		journal.Default.Reset()
	})

	env := startGateway(t, Config{Workers: 2, MaxConns: 4, DrainTimeout: 3 * time.Second})
	tc, err := env.dial(t, "wide")
	if err != nil {
		t.Fatal(err)
	}
	echoOnce(t, tc, "one echoed record")
	tc.Close()
	// Let the worker read the client's EOF before draining; a Shutdown
	// that lands between the echo write and that read ends the session
	// as "drain" instead.
	for deadline := time.Now().Add(3 * time.Second); env.srv.Stats().SessionsDone == 0; {
		if time.Now().After(deadline) {
			t.Fatal("session never finished after the client closed")
		}
		time.Sleep(time.Millisecond)
	}
	if err := env.srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	var wide *journal.Event
	for _, e := range journal.Default.Events() {
		if e.Layer == "gateway" && e.Name == "session" {
			ev := e
			wide = &ev
			break
		}
	}
	if wide == nil {
		t.Fatal("no gateway session wide event emitted")
	}
	if got := wide.Get("close_reason"); got != "eof" {
		t.Errorf("close_reason = %q, want eof", got)
	}
	if got := wide.Get("suite"); got == "" {
		t.Error("wide event missing suite")
	}
	if got := wide.Get("resumed"); got != "false" {
		t.Errorf("resumed = %q, want false", got)
	}
	if v, ok := wide.GetFloat("records"); !ok || v < 1 {
		t.Errorf("records = %v,%v, want >= 1", v, ok)
	}
	if v, ok := wide.GetFloat("bytes"); !ok || v != float64(len("one echoed record")) {
		t.Errorf("bytes = %v,%v, want %d", v, ok, len("one echoed record"))
	}
	if v, ok := wide.GetFloat("handshake_us"); !ok || v <= 0 {
		t.Errorf("handshake_us = %v,%v, want > 0", v, ok)
	}
}

// TestGatewayShutdownLeaksNoGoroutines drives concurrent sessions and
// verifies Shutdown returns the process to its baseline goroutine
// count: no worker, accept-loop, or per-conn goroutine survives.
func TestGatewayShutdownLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	env := startGateway(t, Config{Workers: 8, MaxConns: 16, DrainTimeout: 3 * time.Second})

	const clients = 8
	var wg sync.WaitGroup
	var okCount atomic.Int64
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tc, err := env.dial(t, "leak"+string(rune('a'+i)))
			if err != nil {
				return
			}
			defer tc.Close()
			msg := strings.Repeat("x", 512)
			_ = tc.SetDeadline(time.Now().Add(10 * time.Second))
			if _, err := tc.Write([]byte(msg)); err != nil {
				return
			}
			buf := make([]byte, len(msg))
			got := 0
			for got < len(msg) {
				n, err := tc.Read(buf[got:])
				if err != nil {
					return
				}
				got += n
			}
			okCount.Add(1)
		}(i)
	}
	wg.Wait()
	if okCount.Load() == 0 {
		t.Fatal("no client completed an echo")
	}
	if err := env.srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// Client-side conns are closed; give the runtime a moment to retire
	// netpoll goroutines before comparing.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: before=%d after=%d\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestGatewayStalledClientCannotBlockDrain parks a client that
// completes the handshake and then goes silent. Shutdown must not wait
// past the drain deadline for it.
func TestGatewayStalledClientCannotBlockDrain(t *testing.T) {
	env := startGateway(t, Config{
		Workers: 2, MaxConns: 4,
		IdleTimeout:  time.Hour, // only the drain deadline can save us
		DrainTimeout: 300 * time.Millisecond,
	})
	tc, err := env.dial(t, "staller")
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	// The session is established server-side and parked in Read.

	start := time.Now()
	err = env.srv.Shutdown(context.Background())
	elapsed := time.Since(start)
	if elapsed > 5*time.Second {
		t.Fatalf("stalled client held shutdown for %v", elapsed)
	}
	// Whether the read deadline fired (graceful, no error) or the
	// force-closer swept it, the server must be fully down; a stalled
	// peer never yields an error-free *and* force-free drain guarantee,
	// so just assert termination and that stats add up.
	st := env.srv.Stats()
	if st.Handshakes != 1 {
		t.Fatalf("stats: %+v (err=%v)", st, err)
	}
}

// TestGatewayConnCapBackpressure verifies MaxConns bounds concurrent
// sessions: with a cap of 2 and 6 slow clients, peak concurrency
// server-side never exceeds the cap, yet every client is eventually
// served.
func TestGatewayConnCapBackpressure(t *testing.T) {
	env := startGateway(t, Config{Workers: 4, MaxConns: 2, DrainTimeout: 3 * time.Second})
	const clients = 6
	var wg sync.WaitGroup
	var served atomic.Int64
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tc, err := env.dial(t, "cap"+string(rune('0'+i)))
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			defer tc.Close()
			echoOnce(t, tc, "held open")
			time.Sleep(50 * time.Millisecond) // hold the slot briefly
			served.Add(1)
		}(i)
	}
	wg.Wait()
	if err := env.srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	st := env.srv.Stats()
	if served.Load() != clients || st.Handshakes != clients {
		t.Fatalf("served %d/%d, stats %+v", served.Load(), clients, st)
	}
	if st.PeakActive > 2 {
		t.Fatalf("cap 2 breached: peak active %d", st.PeakActive)
	}
}

// TestGatewayPanicRecovery crashes one session inside the handler and
// verifies the worker survives to serve the next connection, and that
// the crash is reported once: one crit wide event carrying the panic,
// and the panic and sessions-done counters each moving once for it.
func TestGatewayPanicRecovery(t *testing.T) {
	armJournal(t, journal.LevelInfo)
	obs.Default.SetEnabled(true)
	t.Cleanup(func() { obs.Default.SetEnabled(false) })
	panics0 := mPanics.Value()
	var fired atomic.Bool
	testHookSession = func(id int64) {
		if fired.CompareAndSwap(false, true) {
			panic("injected session crash")
		}
	}
	defer func() { testHookSession = nil }()

	env := startGateway(t, Config{Workers: 1, MaxConns: 2, DrainTimeout: 3 * time.Second})

	// First session panics server-side right after the handshake; the
	// client just sees its connection die.
	tc1, err := env.dial(t, "boom")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	_ = tc1.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := tc1.Read(buf); err == nil {
		t.Fatal("expected the panicked session's conn to drop")
	}
	tc1.Close()
	waitSessions(t, env.srv, 1)
	if st := env.srv.Stats(); st.SessionsDone != 1 || st.PanicsRecovered != 1 {
		t.Fatalf("after the crash: stats %+v, want 1 session done, 1 panic", st)
	}
	if got := mPanics.Value() - panics0; got != 1 {
		t.Fatalf("gateway.panics_recovered moved %d, want 1", got)
	}

	// Same (sole) worker must still serve a healthy session.
	tc2, err := env.dial(t, "after")
	if err != nil {
		t.Fatalf("dial after panic: %v", err)
	}
	echoOnce(t, tc2, "still standing")
	tc2.Close()

	if err := env.srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if st := env.srv.Stats(); st.PanicsRecovered != 1 || st.SessionsDone != 2 {
		t.Fatalf("panics recovered = %d, sessions done = %d, want 1 and 2 (stats %+v)",
			st.PanicsRecovered, st.SessionsDone, st)
	}
	if got := mPanics.Value() - panics0; got != 1 {
		t.Fatalf("gateway.panics_recovered moved %d, want 1", got)
	}
	var crit []journal.Event
	for _, e := range sessionEvents(t) {
		if e.Level == journal.LevelCrit {
			crit = append(crit, e)
		}
	}
	if len(crit) != 1 || crit[0].Name != "session" || crit[0].TSim != 1 ||
		crit[0].Get("panic") != "injected session crash" || crit[0].Get("close_reason") != "panic" {
		t.Fatalf("want one crit wide event for session 1 carrying the panic, got %+v", crit)
	}
}

// TestGatewayOneEventPerSession runs one clean session and one whose
// client trusts a different CA with the journal at debug: each session
// yields exactly one journal event, keyed by its connection id, and no
// wtls-layer event. The failed session's event is a warn carrying the
// alert the client sent.
func TestGatewayOneEventPerSession(t *testing.T) {
	armJournal(t, journal.LevelDebug)
	env := startGateway(t, Config{Workers: 2, MaxConns: 4, DrainTimeout: 3 * time.Second})
	tc, err := env.dial(t, "clean")
	if err != nil {
		t.Fatal(err)
	}
	echoOnce(t, tc, "clean session")
	tc.Close()
	waitSessions(t, env.srv, 1)

	otherCA, _, _, err := DevPKI("another-ca", "gw.local", testBits)
	if err != nil {
		t.Fatal(err)
	}
	env.client.RootCA = &otherCA.Key.PublicKey
	if _, err := env.dial(t, "distrust"); err == nil {
		t.Fatal("client accepted a certificate from a CA it does not trust")
	}
	waitSessions(t, env.srv, 2)
	if err := env.srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	byID := map[int64][]journal.Event{}
	for _, e := range sessionEvents(t) {
		byID[e.TSim] = append(byID[e.TSim], e)
	}
	if len(byID) != 2 || len(byID[1]) != 1 || len(byID[2]) != 1 {
		t.Fatalf("want one event for each of sessions 1 and 2, got %+v", byID)
	}
	clean, failed := byID[1][0], byID[2][0]
	if clean.Name != "session" || clean.Level != journal.LevelInfo || clean.Get("close_reason") != "eof" || clean.Get("err") != "" {
		t.Errorf("clean session event: %+v", clean)
	}
	if failed.Name != "session" || failed.Level != journal.LevelWarn || failed.Get("close_reason") != "handshake_failed" {
		t.Errorf("failed session event: %+v", failed)
	}
	if e := failed.Get("err"); !strings.Contains(e, "bad_certificate") {
		t.Errorf("failed session err = %q, want it to name the bad_certificate alert", e)
	}
	if st := env.srv.Stats(); st.Handshakes != 1 || st.HandshakeFailures != 1 || st.SessionsDone != 2 {
		t.Errorf("stats %+v, want 1 handshake, 1 failure, 2 sessions", st)
	}
}

// armJournal records journal events at min and up for one test.
func armJournal(t *testing.T, min journal.Level) {
	t.Helper()
	journal.Default.Reset()
	journal.Default.SetMinLevel(min)
	journal.Default.SetEnabled(true)
	t.Cleanup(func() {
		journal.Default.SetEnabled(false)
		journal.Default.SetMinLevel(journal.LevelInfo)
		journal.Default.Reset()
	})
}

// sessionEvents returns the journal's per-session events: everything
// but the gateway's process-level ones, and it fails the test on any
// wtls-layer event.
func sessionEvents(t *testing.T) []journal.Event {
	t.Helper()
	var out []journal.Event
	for _, e := range journal.Default.Events() {
		switch {
		case e.Layer == "wtls":
			t.Errorf("wtls-layer journal event %s/%s", e.Layer, e.Name)
		case e.Layer == "gateway" && (e.Name == "listening" || strings.HasPrefix(e.Name, "drain_")):
		default:
			out = append(out, e)
		}
	}
	return out
}

// waitSessions waits until the server has finished n sessions.
func waitSessions(t *testing.T, srv *Server, n int64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); srv.Stats().SessionsDone < n; {
		if time.Now().After(deadline) {
			t.Fatalf("sessions done = %d, want %d", srv.Stats().SessionsDone, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDevPKIPinned pins the CA key, server key and certificate that
// perfbench and the gateway and loadgen tests derive. Derivation may get
// faster, but every seed must keep yielding the same PKI.
func TestDevPKIPinned(t *testing.T) {
	for _, c := range []struct{ seed, want string }{
		{"perfbench-pki", "b9b901384d2a25f7"},
		{"gateway-test", "95d949d41f73d867"},
		{"loadgen-test", "9a05fdcd83e42acc"},
		{"another-ca", "d664a6b2738f3064"},
	} {
		ca, key, cert, err := DevPKI(c.seed, "gw.local", testBits)
		if err != nil {
			t.Fatalf("%s: %v", c.seed, err)
		}
		h := sha256.New()
		for _, v := range []*big.Int{ca.Key.N, ca.Key.D, key.N, key.D} {
			h.Write([]byte(v.Text(16) + "/"))
		}
		h.Write(cert.Marshal())
		if got := hex.EncodeToString(h.Sum(nil)[:8]); got != c.want {
			t.Errorf("DevPKI(%q) digest %s, want %s", c.seed, got, c.want)
		}
	}
}

// TestDevPKILeavesNoGoroutine: DevPKI's concurrent derivation is done
// when it returns, on success and on failure.
func TestDevPKILeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	if _, _, _, err := DevPKI("goroutines", "gw.local", testBits); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := DevPKI("goroutines", "gw.local", 64); err == nil {
		t.Fatal("DevPKI accepted a 64-bit modulus")
	}
	// A finished goroutine may take a moment to leave the count.
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i == 100 {
			t.Fatalf("goroutines: before=%d after=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

func BenchmarkDevPKI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, _, err := DevPKI("perfbench-pki", "gw.local", testBits); err != nil {
			b.Fatal(err)
		}
	}
}
