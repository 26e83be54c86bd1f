package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/chaos"
	"repro/internal/crypto/prng"
	"repro/internal/gateway"
	"repro/internal/wtls"
)

// Fixed infrastructure. The dev PKI does not depend on the workload
// seed, so set-up does the same key generation on every run.
const (
	serverName  = "gw.local"
	pkiSeed     = "perfbench-pki"
	rsaBits     = 512
	dialTimeout = 5 * time.Second
)

// Suite IDs the workloads pin.
const (
	suiteRC4  uint16 = 0x0005 // RSA_WITH_RC4_128_SHA
	suite3DES uint16 = 0x000A // RSA_WITH_3DES_EDE_CBC_SHA, the paper's reference suite
	suiteAES  uint16 = 0x002F // RSA_WITH_AES_128_CBC_SHA
)

// sessionSpec shapes one client session against the gateway.
type sessionSpec struct {
	suites    []uint16
	cache     *wtls.SessionCache // nil: every handshake is a full one
	records   int                // echoed records per session
	burst     int                // records written before their echoes are read
	size      int                // bytes per record
	chaos     *chaos.ConnConfig  // nil: a clean socket
	ioTimeout time.Duration      // deadline for the handshake and for each burst
	attempts  int
	backoff   backoff.Policy
}

// sessionOut is what one session did, across all of its attempts.
type sessionOut struct {
	ok          bool
	mismatch    bool
	echoed      int64 // echoed bytes compared equal to what was sent
	handshakes  int   // client handshakes that succeeded
	resumed     int   // of which resumed a cached session
	attempts    int
	timeouts    int // attempts that ended on a net.Error timeout
	timeoutWait time.Duration
	backoffWait time.Duration
	chaos       chaos.ConnStats
}

var errMismatch = errors.New("echo differs from what was sent")

// loopback is a gateway serving on 127.0.0.1 plus the client template
// that reaches it.
type loopback struct {
	seed   int64
	srv    *gateway.Server
	addr   string
	client wtls.Config
	pool   []byte                 // seed-derived bytes every payload is cut from
	tr     atomic.Pointer[tracer] // read by the timing listener
	nextID int                    // next session number to hand out
}

// startLoopback derives the dev PKI, starts the gateway on a loopback
// listener and runs warm-up sessions until the first one succeeds.
// traced installs the timing listener (off until a tracer is stored).
func startLoopback(seed int64, pool []byte, traced bool, warm *sessionSpec) (*loopback, error) {
	ca, key, cert, err := gateway.DevPKI(pkiSeed, serverName, rsaBits)
	if err != nil {
		return nil, err
	}
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	lb := &loopback{
		seed:   seed,
		addr:   raw.Addr().String(),
		client: wtls.Config{RootCA: &ca.Key.PublicKey, ServerName: serverName},
		pool:   pool,
	}
	var ln net.Listener = raw
	if traced {
		ln = &timedListener{Listener: raw, tr: &lb.tr}
	}
	lb.srv, err = gateway.Serve(ln, gateway.Config{
		WTLS:     &wtls.Config{Certificate: cert, PrivateKey: key, SessionCache: wtls.NewSessionCache()},
		RandSeed: []byte(fmt.Sprintf("perfbench/gateway/%d", seed)),
	})
	if err != nil {
		raw.Close()
		return nil, err
	}
	for i := 0; ; i++ {
		out := lb.session(-1-i, warm, nil)
		if out.ok {
			break
		}
		if i == 9 {
			lb.close()
			return nil, errors.New("warm-up: no session succeeded in 10 tries")
		}
	}
	if _, idle := lb.waitIdle(); !idle {
		lb.close()
		return nil, errors.New("warm-up: gateway did not go idle")
	}
	return lb, nil
}

func (lb *loopback) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return lb.srv.Shutdown(ctx)
}

// waitIdle waits until the gateway has finished every session it
// accepted, so its counters cover exactly the sessions the clients ran.
func (lb *loopback) waitIdle() (gateway.Stats, bool) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := lb.srv.Stats()
		if st.SessionsDone == st.Accepted {
			return st, true
		}
		if time.Now().After(deadline) {
			return st, false
		}
		time.Sleep(time.Millisecond)
	}
}

// gatewayCounts settles the gateway and stores its counters since
// before into m.
func (lb *loopback) gatewayCounts(before gateway.Stats, m map[string]float64) (gateway.Stats, error) {
	after, idle := lb.waitIdle()
	m["gateway.handshakes"] = float64(after.Handshakes - before.Handshakes)
	m["gateway.handshake_failures"] = float64(after.HandshakeFailures - before.HandshakeFailures)
	m["gateway.sessions_done"] = float64(after.SessionsDone - before.SessionsDone)
	if !idle {
		return after, fmt.Errorf("gateway still serving %d sessions after the clients finished", after.Accepted-after.SessionsDone)
	}
	return after, nil
}

// reconcile checks the gateway's own counters against what the clients
// verified: every handshake matched, none failed, and every byte the
// gateway echoed was compared equal by a client.
func reconcile(before, after gateway.Stats, handshakes int, echoed int64) []string {
	var errs []string
	if got := after.Handshakes - before.Handshakes; got != int64(handshakes) {
		errs = append(errs, fmt.Sprintf("gateway counted %d handshakes, clients %d", got, handshakes))
	}
	if got := after.HandshakeFailures - before.HandshakeFailures; got != 0 {
		errs = append(errs, fmt.Sprintf("gateway counted %d handshake failures", got))
	}
	if got := after.EchoBytes - before.EchoBytes; got != echoed {
		errs = append(errs, fmt.Sprintf("gateway echoed %d bytes, clients verified %d", got, echoed))
	}
	return errs
}

// payload cuts session id's n payload bytes out of the seed-derived pool.
func (lb *loopback) payload(id, n int) []byte {
	off := int(mix64(uint64(lb.seed), uint64(int64(id))) % uint64(len(lb.pool)-n+1))
	return lb.pool[off : off+n]
}

// session runs one client session, retrying failed attempts under the
// spec's backoff policy. Seeds mirror internal/loadgen: the DRBG, the
// fault schedule and the retry jitter are pure functions of (seed,
// session, attempt).
func (lb *loopback) session(id int, spec *sessionSpec, tr *tracer) sessionOut {
	var out sessionOut
	root := tr.begin()
	pol := spec.backoff
	pol.Seed = lb.seed ^ int64(id)*0x9e3779b9
	sleep := func(d time.Duration) {
		s := tr.begin()
		t0 := time.Now()
		time.Sleep(d)
		out.backoffWait += time.Since(t0)
		tr.end(s, root.id, root.id, "backoff", "wait", d.Microseconds())
	}
	err := backoff.Retry(spec.attempts, pol, sleep, func(attempt int) error {
		out.attempts++
		return lb.attempt(id, attempt, spec, tr, root.id, &out)
	})
	out.ok = err == nil
	tr.end(root, 0, root.id, "load", "session", out.echoed)
	return out
}

// attempt is one connect, handshake and echo try.
func (lb *loopback) attempt(id, attempt int, spec *sessionSpec, tr *tracer, op int64, out *sessionOut) error {
	as := tr.begin()
	defer tr.end(as, op, op, "load", "attempt", 0)

	ds := tr.begin()
	raw, err := net.DialTimeout("tcp", lb.addr, dialTimeout)
	if err != nil {
		return fmt.Errorf("dial: %w", err)
	}
	tr.dial(ds, as.id, op, raw.LocalAddr().String())
	var conn net.Conn = raw
	if spec.chaos != nil {
		cc := *spec.chaos
		cc.Seed = lb.seed ^ int64(id)*0x100000001b3 ^ int64(attempt)<<32
		fc, err := chaos.WrapConn(raw, cc)
		if err != nil {
			raw.Close()
			return fmt.Errorf("chaos: %w", err)
		}
		defer func() {
			st := fc.Stats()
			out.chaos.Chunks += st.Chunks
			out.chaos.Dropped += st.Dropped
			out.chaos.Corrupted += st.Corrupted
			out.chaos.Stalled += st.Stalled
		}()
		conn = fc
	}

	cfg := lb.client
	cfg.Rand = prng.NewDRBG([]byte(fmt.Sprintf("load/%d/%d/%d", lb.seed, id, attempt)))
	cfg.Suites = spec.suites
	cfg.SessionCache = spec.cache
	tc := wtls.Client(conn, &cfg)
	defer tc.Close()

	// failed classifies an attempt-ending error; since is when the
	// deadline that may have expired was set.
	failed := func(what string, since time.Time, err error) error {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			out.timeouts++
			out.timeoutWait += time.Since(since)
		}
		return fmt.Errorf("%s: %w", what, err)
	}

	since := time.Now()
	_ = tc.SetDeadline(since.Add(spec.ioTimeout))
	hs := tr.begin()
	if err := tc.Handshake(); err != nil {
		return failed("handshake", since, err)
	}
	tr.end(hs, as.id, op, "wtls", "handshake", 0)
	out.handshakes++
	if tc.State().Resumed {
		out.resumed++
	}

	want := lb.payload(id, spec.records*spec.size)
	got := make([]byte, spec.burst*spec.size)
	for rec := 0; rec < spec.records; rec += spec.burst {
		n := spec.burst
		if left := spec.records - rec; n > left {
			n = left
		}
		chunk := want[rec*spec.size : (rec+n)*spec.size]
		since = time.Now()
		_ = tc.SetDeadline(since.Add(spec.ioTimeout))
		es := tr.begin()
		for i := 0; i < n; i++ {
			ws := tr.begin()
			if _, err := tc.Write(chunk[i*spec.size : (i+1)*spec.size]); err != nil {
				return failed(fmt.Sprintf("record %d write", rec+i), since, err)
			}
			tr.end(ws, es.id, op, "wtls", "write", int64(spec.size))
		}
		if _, err := io.ReadFull(tc, got[:len(chunk)]); err != nil {
			return failed(fmt.Sprintf("record %d read", rec), since, err)
		}
		if !bytes.Equal(got[:len(chunk)], chunk) {
			out.mismatch = true
			return fmt.Errorf("records %d..%d: %w", rec, rec+n-1, errMismatch)
		}
		tr.end(es, as.id, op, "wtls", "echo", int64(len(chunk)))
		out.echoed += int64(len(chunk))
	}
	return nil
}

// clientTotals sums what a phase's sessions did.
type clientTotals struct {
	sessions, ok, mismatches          int
	handshakes, resumed, attempts     int
	timeouts                          int
	echoed                            int64
	timeoutWait, backoffWait          time.Duration
	chunks, dropped, corrupted, stall int
}

func (c *clientTotals) add(o sessionOut) {
	c.sessions++
	if o.ok {
		c.ok++
	}
	if o.mismatch {
		c.mismatches++
	}
	c.handshakes += o.handshakes
	c.resumed += o.resumed
	c.attempts += o.attempts
	c.timeouts += o.timeouts
	c.echoed += o.echoed
	c.timeoutWait += o.timeoutWait
	c.backoffWait += o.backoffWait
	c.chunks += o.chaos.Chunks
	c.dropped += o.chaos.Dropped
	c.corrupted += o.chaos.Corrupted
	c.stall += o.chaos.Stalled
}

// layer stores the client-side per-layer counts into m.
func (c *clientTotals) layer(m map[string]float64) {
	if c.handshakes > 0 {
		m["wtls.resumed_frac"] = float64(c.resumed) / float64(c.handshakes)
	}
	m["chaos.chunks"] = float64(c.chunks)
	m["chaos.dropped"] = float64(c.dropped)
	m["chaos.corrupted"] = float64(c.corrupted)
	m["chaos.stalled"] = float64(c.stall)
	m["load.retries"] = float64(c.attempts - c.sessions)
	if c.sessions > 0 {
		m["load.attempts_per_session"] = float64(c.attempts) / float64(c.sessions)
	}
	m["backoff.wait_ms_total"] = float64(c.backoffWait) / 1e6
	m["load.timeout_attempts"] = float64(c.timeouts)
	m["load.timeout_wait_ms_total"] = float64(c.timeoutWait) / 1e6
}

// mismatchErrs reports echo mismatches as correctness failures.
func (c *clientTotals) mismatchErrs() []string {
	if c.mismatches == 0 {
		return nil
	}
	return []string{fmt.Sprintf("%d sessions received an echo that differs from what they sent", c.mismatches)}
}

// ---- handshake-full ----

// handshakeWindow is how many handshake-full sessions, about a second's
// worth on a 2-core x86-64 host, each latency window holds. A burst of
// host scheduling moved the whole-run p99 of one run in five by 25 %;
// the median over windows moved by under 3 %.
const handshakeWindow = 1000

// handshakeFull: every session is a full RSA-512 handshake with no
// client session cache, then four 256 B echoes, on two closed-loop
// clients.
type handshakeFull struct {
	*loopback
	spec sessionSpec
}

func handshakeFullSpec() sessionSpec {
	return sessionSpec{suites: []uint16{suite3DES}, records: 4, burst: 1, size: 256,
		ioTimeout: 5 * time.Second, attempts: 1}
}

func setupHandshakeFull(seed int64, pool []byte, traced bool, _ int) (env, error) {
	spec := handshakeFullSpec()
	lb, err := startLoopback(seed, pool, traced, &spec)
	if err != nil {
		return nil, err
	}
	return &handshakeFull{loopback: lb, spec: spec}, nil
}

func (w *handshakeFull) measure(d time.Duration, tr *tracer) *phase {
	w.tr.Store(tr)
	defer w.tr.Store(nil)
	before := w.srv.Stats()
	var tot clientTotals
	var lat []float64
	var mu sync.Mutex
	t0 := time.Now()
	n := closedLoop(2, w.nextID, t0.Add(d), func(id int) {
		s := time.Now()
		out := w.session(id, &w.spec, tr)
		ms := float64(time.Since(s)) / 1e6
		if !out.ok {
			ms = posInf
		}
		mu.Lock()
		tot.add(out)
		lat = append(lat, ms)
		mu.Unlock()
	})
	wall := time.Since(t0)
	w.nextID += n
	ph := w.finish(wall, lat, &tot, before, w.spec.records*w.spec.size, true, tr)
	ph.window = handshakeWindow
	return ph
}

// ---- shared by the loopback workloads ----

// finish totals a loopback phase: correctness checks, per-layer counts
// and the seed-determined fingerprint. perOK is the payload bytes a
// successful session echoes; clean phases also reconcile the gateway's
// counters with the clients'.
func (lb *loopback) finish(wall time.Duration, lat []float64, tot *clientTotals, before gateway.Stats, perOK int, clean bool, tr *tracer) *phase {
	ph := &phase{wall: wall, lat: lat, goodBytes: int64(tot.ok) * int64(perOK), layer: map[string]float64{}}
	after, err := lb.gatewayCounts(before, ph.layer)
	if err != nil {
		ph.errs = append(ph.errs, err.Error())
	}
	ph.errs = append(ph.errs, tot.mismatchErrs()...)
	tot.layer(ph.layer)
	tr.gatewayLayer(tot.sessions, ph.layer)
	ph.fp = map[string]float64{
		"load.retries":      ph.layer["load.retries"],
		"wtls.resumed_frac": ph.layer["wtls.resumed_frac"],
		"chaos.chunks":      ph.layer["chaos.chunks"],
		"chaos.dropped":     ph.layer["chaos.dropped"],
		"chaos.corrupted":   ph.layer["chaos.corrupted"],
		"chaos.stalled":     ph.layer["chaos.stalled"],
	}
	if clean {
		ph.errs = append(ph.errs, reconcile(before, after, tot.handshakes, tot.echoed)...)
	}
	return ph
}

// ---- bulk-resumed ----

// bulkLeg is one suite's share of a bulk-resumed round.
type bulkLeg struct {
	name     string
	suite    uint16
	sessions int // per round; sized so the legs take comparable wall time
}

// bulkLegs: session counts per round, fixed once so that on a 2-core
// x86-64 host each leg takes roughly the same wall time.
var bulkLegs = []bulkLeg{
	{"rc4", suiteRC4, 240},
	{"3des", suite3DES, 42},
	{"aes", suiteAES, 4},
}

// bulkResumed: three legs per round, one per suite, each with its own
// fresh client session cache so every session after a leg's first
// resumes; each session echoes 64 × 1 KiB records in bursts of 8.
type bulkResumed struct {
	*loopback
	spec sessionSpec
}

func bulkSpec() sessionSpec {
	return sessionSpec{records: 64, burst: 8, size: 1024, ioTimeout: 10 * time.Second, attempts: 1}
}

func setupBulkResumed(seed int64, pool []byte, traced bool, _ int) (env, error) {
	spec := bulkSpec()
	warm := spec
	warm.suites = []uint16{bulkLegs[0].suite}
	lb, err := startLoopback(seed, pool, traced, &warm)
	if err != nil {
		return nil, err
	}
	return &bulkResumed{loopback: lb, spec: spec}, nil
}

func (w *bulkResumed) measure(d time.Duration, tr *tracer) *phase {
	w.tr.Store(tr)
	defer w.tr.Store(nil)
	before := w.srv.Stats()
	var tot clientTotals
	var lat []float64
	legWall := make([]time.Duration, len(bulkLegs))
	legOK := make([]int, len(bulkLegs))
	t0 := time.Now()
	deadline := t0.Add(d)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		for i, leg := range bulkLegs {
			spec := w.spec
			spec.suites = []uint16{leg.suite}
			spec.cache = wtls.NewSessionCache()
			legOuts := make([]sessionOut, leg.sessions)
			legLat := make([]float64, leg.sessions)
			first := w.nextID
			l0 := time.Now()
			fixedLoop(2, first, leg.sessions, func(id int) {
				s := time.Now()
				legOuts[id-first] = w.session(id, &spec, tr)
				legLat[id-first] = float64(time.Since(s)) / 1e6
			})
			legWall[i] += time.Since(l0)
			w.nextID += leg.sessions
			for j, o := range legOuts {
				tot.add(o)
				if o.ok {
					legOK[i]++
					lat = append(lat, legLat[j])
				} else {
					lat = append(lat, posInf)
				}
			}
		}
	}
	wall := time.Since(t0)
	ph := w.finish(wall, lat, &tot, before, w.spec.records*w.spec.size, true, tr)
	per := float64(w.spec.records * w.spec.size)
	for i, leg := range bulkLegs {
		ph.layer["bulk.goodput_MBps."+leg.name] = float64(legOK[i]) * per / 1e6 / legWall[i].Seconds()
	}
	return ph
}

// ---- session-lossy ----

// Session-lossy shape: an open loop at a fixed arrival rate over a
// socket that corrupts, drops and stalls client writes.
const (
	lossyRate  = 60 // sessions offered per second
	lossySlots = 2  // client connections in flight at most
)

func lossySpec() sessionSpec {
	return sessionSpec{
		suites: []uint16{suite3DES}, records: 4, burst: 1, size: 256,
		chaos:     &chaos.ConnConfig{Corrupt: 0.02, Drop: 0.002, StallProb: 0.01, Stall: 20 * time.Millisecond},
		ioTimeout: 100 * time.Millisecond, attempts: 10,
		backoff: backoff.Policy{Base: 10 * time.Millisecond, Max: 320 * time.Millisecond, Factor: 2, Jitter: 0.5},
	}
}

type sessionLossy struct {
	*loopback
	spec sessionSpec
}

func setupSessionLossy(seed int64, pool []byte, traced bool, _ int) (env, error) {
	spec := lossySpec()
	warm := spec
	warm.chaos = nil
	lb, err := startLoopback(seed, pool, traced, &warm)
	if err != nil {
		return nil, err
	}
	return &sessionLossy{loopback: lb, spec: spec}, nil
}

func (w *sessionLossy) measure(d time.Duration, tr *tracer) *phase {
	w.tr.Store(tr)
	defer w.tr.Store(nil)
	before := w.srv.Stats()
	n := int(d.Seconds() * lossyRate)
	if n < 1 {
		n = 1
	}
	first := w.nextID
	sessOuts := make([]sessionOut, n)
	t0 := time.Now()
	arr := openLoop(n, time.Second/lossyRate, lossySlots, func(i int) bool {
		sessOuts[i] = w.session(first+i, &w.spec, tr)
		return sessOuts[i].ok
	})
	wall := time.Since(t0)
	w.nextID += n
	var tot clientTotals
	lat := make([]float64, n)
	var queue, late []float64
	for i, a := range arr {
		tot.add(sessOuts[i])
		lat[i] = posInf
		if a.OK {
			lat[i] = float64(a.Latency()) / 1e6
		}
		queue = append(queue, float64(a.QueueWait())/1e3)
		late = append(late, float64(a.Late())/1e3)
	}
	ph := w.finish(wall, lat, &tot, before, w.spec.records*w.spec.size, false, tr)
	ph.layer["load.queue_wait_us.p50"] = percentile(queue, 0.5)
	ph.layer["load.queue_wait_us.p90"] = percentile(queue, 0.9)
	ph.layer["load.gen_late_us.p99"] = percentile(late, 0.99)
	ph.fp["load.timeout_attempts"] = ph.layer["load.timeout_attempts"]
	return ph
}
