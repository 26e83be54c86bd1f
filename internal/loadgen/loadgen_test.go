package loadgen

import (
	"context"
	"encoding/json"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/backoff"
	"repro/internal/chaos"
	"repro/internal/crypto/rsa"
	"repro/internal/gateway"
	"repro/internal/obs/journal"
	"repro/internal/wtls"
)

// testRootCA is a placeholder key for tests that never reach a
// handshake (config validation only checks presence).
var testRootCA rsa.PublicKey

const testBits = 512

// startGateway boots a loopback gateway and returns it with a matching
// client template.
func startGateway(t *testing.T) (*gateway.Server, *wtls.Config) {
	t.Helper()
	ca, key, cert, err := gateway.DevPKI("loadgen-test", "gw.local", testBits)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := gateway.Serve(ln, gateway.Config{
		WTLS:         &wtls.Config{Certificate: cert, PrivateKey: key},
		RandSeed:     []byte("loadgen-test-rand"),
		Workers:      8,
		MaxConns:     32,
		DrainTimeout: 3 * time.Second,
	})
	if err != nil {
		ln.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
	return srv, &wtls.Config{RootCA: &ca.Key.PublicKey, ServerName: "gw.local"}
}

func TestRunCleanChannel(t *testing.T) {
	srv, client := startGateway(t)
	r, err := New(Config{
		Addr: srv.Addr().String(), WTLS: client,
		Conns: 20, Concurrency: 4, Records: 2, Payload: 128,
		Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := r.Run()
	if rep.OK != 20 || rep.Failed != 0 {
		t.Fatalf("clean run: %s (lastErr=%v)", rep, r.LastErr())
	}
	if rep.Retries != 0 {
		t.Fatalf("clean channel needed %d retries", rep.Retries)
	}
	if rep.Records != 40 {
		t.Fatalf("records echoed = %d, want 40", rep.Records)
	}
	if rep.HandshakesPerSec <= 0 || rep.HSp50 <= 0 || rep.HSp99 < rep.HSp50 {
		t.Fatalf("implausible latency stats: %s", rep)
	}
}

// TestRunRetriesThroughChaos pushes sessions through a corrupting
// socket: individual attempts die on MAC failures and the retry layer
// must still land every session. The schedule is a pure function of
// the seed — chaos faults depend only on the (deterministic) chunk
// sequence — so this does not flake.
func TestRunRetriesThroughChaos(t *testing.T) {
	srv, client := startGateway(t)
	r, err := New(Config{
		Addr: srv.Addr().String(), WTLS: client,
		Conns: 10, Concurrency: 4, Records: 1, Payload: 64,
		Seed:      7,
		Chaos:     &chaos.ConnConfig{Corrupt: 0.05},
		Attempts:  10,
		IOTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := r.Run()
	if rep.Failed != 0 {
		t.Fatalf("sessions failed despite retry budget: %s (lastErr=%v)", rep, r.LastErr())
	}
	if rep.Retries == 0 {
		t.Fatalf("chaos channel produced zero retries: %s", rep)
	}
}

// TestSessionWideEvents verifies every session emits exactly one wide
// "session" journal record carrying its dimensions — including chaos
// fault counts summed over retried attempts.
func TestSessionWideEvents(t *testing.T) {
	journal.Default.Reset()
	journal.Default.SetEnabled(true)
	t.Cleanup(func() {
		journal.Default.SetEnabled(false)
		journal.Default.Reset()
	})

	srv, client := startGateway(t)
	const conns = 8
	r, err := New(Config{
		Addr: srv.Addr().String(), WTLS: client,
		Conns: conns, Concurrency: 2, Records: 3, Payload: 64,
		Seed:      7,
		Chaos:     &chaos.ConnConfig{Corrupt: 0.05},
		Attempts:  10,
		IOTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := r.Run()

	var wides []journal.Event
	for _, e := range journal.Default.Events() {
		if e.Layer == "load" && e.Name == "session" {
			wides = append(wides, e)
		}
	}
	if len(wides) != conns {
		t.Fatalf("got %d wide events, want one per session (%d)", len(wides), conns)
	}
	var okCount, chunks int64
	for _, e := range wides {
		if e.Get("ok") == "true" {
			okCount++
			if e.Get("suite") == "" {
				t.Errorf("session %d: ok without suite", e.TSim)
			}
			if v, _ := e.GetFloat("records"); v < 3 {
				t.Errorf("session %d: records = %v, want >= 3", e.TSim, v)
			}
			if v, _ := e.GetFloat("handshake_us"); v <= 0 {
				t.Errorf("session %d: handshake_us = %v", e.TSim, v)
			}
		}
		if v, ok := e.GetFloat("attempts"); !ok || v < 1 {
			t.Errorf("session %d: attempts = %v,%v", e.TSim, v, ok)
		}
		if v, ok := e.GetFloat("duration_us"); !ok || v <= 0 {
			t.Errorf("session %d: duration_us = %v,%v", e.TSim, v, ok)
		}
		c, _ := e.GetFloat("chaos_chunks")
		chunks += int64(c)
	}
	if okCount != rep.OK {
		t.Fatalf("wide events report %d ok, run reported %d", okCount, rep.OK)
	}
	if chunks == 0 {
		t.Fatal("chaos conn saw zero chunks across all sessions")
	}

	// A session that exhausts its attempts: the client trusts a CA that
	// did not sign the gateway's certificate, so every handshake fails.
	// Its one record is the warn wide event; the gateway's own events
	// aside, nothing else is journaled for it.
	journal.Default.Reset()
	otherCA, _, _, err := gateway.DevPKI("another-ca", "gw.local", testBits)
	if err != nil {
		t.Fatal(err)
	}
	distrust := *client
	distrust.RootCA = &otherCA.Key.PublicKey
	r, err = New(Config{
		Addr: srv.Addr().String(), WTLS: &distrust,
		Conns: 1, Concurrency: 1, Records: 1, Payload: 64, Seed: 7,
		Attempts: 2, Backoff: backoff.Policy{Base: time.Millisecond, Max: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep := r.Run(); rep.Failed != 1 {
		t.Fatalf("distrusting client: %s, want 1 failed session", rep)
	}
	var events []journal.Event
	for _, e := range journal.Default.Events() {
		if e.Layer != "gateway" {
			events = append(events, e)
		}
	}
	if len(events) != 1 {
		t.Fatalf("exhausted session journaled %d events, want 1: %+v", len(events), events)
	}
	e := events[0]
	if e.Layer != "load" || e.Name != "session" || e.Level != journal.LevelWarn ||
		e.Get("ok") != "false" || e.Get("attempts") != "2" || !strings.Contains(e.Get("err"), "bad_certificate") {
		t.Fatalf("exhausted session event: %+v", e)
	}
	if v, ok := e.GetFloat("duration_us"); !ok || v <= 0 {
		t.Fatalf("exhausted session duration_us = %v,%v, want > 0", v, ok)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := New(Config{Addr: "x"}); err == nil {
		t.Fatal("config without RootCA accepted")
	}
}

func TestPercentile(t *testing.T) {
	if Percentile(nil, 0.5) != 0 {
		t.Fatal("empty set percentile not 0")
	}
	s := []time.Duration{5, 1, 4, 2, 3} // sorted: 1..5
	if p := Percentile(s, 0.5); p != 3 {
		t.Fatalf("p50 = %v, want 3", p)
	}
	if p := Percentile(s, 0.99); p != 5 {
		t.Fatalf("p99 = %v, want 5", p)
	}
	if p := Percentile(s, 0); p != 1 {
		t.Fatalf("p0 = %v, want 1", p)
	}
}

func TestProgressJSONShape(t *testing.T) {
	r, err := New(Config{Addr: "127.0.0.1:1", WTLS: &wtls.Config{RootCA: &testRootCA}, Conns: 5})
	if err != nil {
		t.Fatal(err)
	}
	var v struct {
		Total   int64   `json:"total"`
		Done    int64   `json:"done"`
		Workers int64   `json:"workers"`
		Rate    float64 `json:"tasks_per_sec"`
		ETA     int64   `json:"eta_ms"`
		Active  bool    `json:"active"`
	}
	blob, err := json.Marshal(r.Progress())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &v); err != nil {
		t.Fatalf("progress payload not valid JSON: %v", err)
	}
	if v.Total != 5 || v.Done != 0 || v.Active {
		t.Fatalf("progress payload: %+v", v)
	}
}

// TestProgressDuringRun polls Progress, as /progress does, from another
// goroutine while Run is starting and running; run it under -race. Once
// Run returns, every session is accounted for and the elapsed time is
// set.
func TestProgressDuringRun(t *testing.T) {
	srv, client := startGateway(t)
	r, err := New(Config{
		Addr: srv.Addr().String(), WTLS: client,
		Conns: 4, Concurrency: 2, Records: 1, Payload: 64, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	polled := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				polled <- n
				return
			default:
				if p := r.Progress(); p.Done > p.Total {
					t.Errorf("progress done %d past total %d", p.Done, p.Total)
				}
				n++
			}
		}
	}()
	// Let the poller run before Run starts: no happens-before edge
	// orders those polls against Run's start.
	time.Sleep(10 * time.Millisecond)
	rep := r.Run()
	close(stop)
	if n := <-polled; n == 0 {
		t.Fatal("progress never polled")
	}
	if rep.OK != 4 {
		t.Fatalf("run: %s (lastErr=%v)", rep, r.LastErr())
	}
	if p := r.Progress(); p.Done != 4 || p.Active || p.ElapsedMS < 0 || p.ETAMS != 0 {
		t.Fatalf("progress after Run: %+v", p)
	}
}
