// Package gateway is a concurrent WTLS-over-TCP session server: the
// first piece of this repo that serves real sockets instead of
// in-memory pipes.
//
// The paper's system-level claim is that a mobile appliance's secure
// transport must survive the operating conditions, not just compute the
// crypto: peers stall mid-handshake, links corrupt records, load spikes
// past capacity, and the box must still drain cleanly on shutdown. The
// server here is built around those failure modes — a bounded
// worker-pool accept loop with a connection cap and accept-backpressure,
// per-connection handshake/idle deadlines so no stalled peer pins a
// worker, per-connection panic recovery, pooled echo buffers, and a
// signal-driven graceful drain (stop accepting, let in-flight sessions
// finish under a deadline, force-close stragglers) that leaks no
// goroutines.
package gateway

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/crypto/prng"
	"repro/internal/crypto/rsa"
	"repro/internal/obs"
	"repro/internal/obs/journal"
	"repro/internal/wtls"
)

// Static metric handles; disarmed until a cmd arms the registry.
var (
	mAccepted    = obs.C("gateway.accepted")
	mHandshakes  = obs.C("gateway.handshakes")
	mHSFailures  = obs.C("gateway.handshake_failures")
	mSessions    = obs.C("gateway.sessions_done")
	mEchoBytes   = obs.C("gateway.echo_bytes")
	mPanics      = obs.C("gateway.panics_recovered")
	mForced      = obs.C("gateway.forced_closes")
	mBadTraceHdr = obs.C("gateway.bad_trace_header")
	gActive      = obs.G("gateway.active_conns")
	hHandshake   = obs.H("gateway.handshake_ns", obs.DurationBuckets)
)

// Config parameterizes a Server. WTLS is a template: the server copies
// it per connection and installs a connection-specific DRBG derived
// from RandSeed, because a DRBG is not safe for concurrent handshakes.
type Config struct {
	// WTLS must carry at least Certificate and PrivateKey. SessionCache,
	// Suites, DHGroup and RSAOptions are honored when set.
	WTLS *wtls.Config
	// RandSeed is the base seed for per-connection randomness.
	RandSeed []byte

	// MaxConns caps concurrently accepted connections; the accept loop
	// stops pulling from the listener when the cap is reached, pushing
	// backpressure into the TCP backlog. Default 1024.
	MaxConns int
	// Workers is the session worker-pool size — the bound on
	// concurrently progressing sessions. Default 128.
	Workers int

	// HandshakeTimeout bounds the whole handshake. Default 10s.
	HandshakeTimeout time.Duration
	// IdleTimeout bounds the wait for the next inbound record in an
	// established session. Default 30s.
	IdleTimeout time.Duration
	// DrainTimeout bounds graceful shutdown: sessions still alive this
	// long after Shutdown begins are force-closed. Default 5s.
	DrainTimeout time.Duration

	// EchoBufBytes sizes the pooled per-session echo buffers. Default
	// 64 KiB — four max-size records, so one Read can drain a full
	// batch from the record layer and the echo Write reseals it as one
	// batch instead of record-at-a-time.
	EchoBufBytes int
}

func (c *Config) withDefaults() Config {
	d := *c
	if d.MaxConns <= 0 {
		d.MaxConns = 1024
	}
	if d.Workers <= 0 {
		d.Workers = 128
	}
	if d.HandshakeTimeout <= 0 {
		d.HandshakeTimeout = 10 * time.Second
	}
	if d.IdleTimeout <= 0 {
		d.IdleTimeout = 30 * time.Second
	}
	if d.DrainTimeout <= 0 {
		d.DrainTimeout = 5 * time.Second
	}
	if d.EchoBufBytes <= 0 {
		d.EchoBufBytes = 64 * 1024
	}
	return d
}

// Stats is a snapshot of the server's lifetime counters.
type Stats struct {
	Accepted          int64
	Handshakes        int64
	HandshakeFailures int64
	SessionsDone      int64
	EchoBytes         int64
	PanicsRecovered   int64
	ForcedCloses      int64
	PeakActive        int64
}

// testHookSession, when non-nil, runs inside every session handler
// right after a successful handshake — the panic-recovery regression
// test injects a crash here.
var testHookSession func(id int64)

// Server accepts and serves WTLS sessions until Shutdown.
type Server struct {
	cfg Config
	ln  net.Listener

	sem    chan struct{}     // connection-cap semaphore
	connCh chan acceptedConn // accept loop -> worker pool
	stop   chan struct{}     // closed once by Shutdown
	wg     sync.WaitGroup

	mu       sync.Mutex
	active   map[net.Conn]struct{}
	draining bool
	drainBy  time.Time

	connSeq  atomic.Int64
	nActive  atomic.Int64
	started  time.Time
	stopOnce sync.Once

	accepted   atomic.Int64
	handshakes atomic.Int64
	hsFailures atomic.Int64
	sessions   atomic.Int64
	echoBytes  atomic.Int64
	panics     atomic.Int64
	forced     atomic.Int64
	peakActive atomic.Int64

	bufPool sync.Pool
}

// Serve starts serving WTLS sessions on ln. It returns immediately;
// the accept loop and worker pool run until Shutdown.
func Serve(ln net.Listener, cfg Config) (*Server, error) {
	if ln == nil {
		return nil, errors.New("gateway: nil listener")
	}
	if cfg.WTLS == nil || cfg.WTLS.Certificate == nil || cfg.WTLS.PrivateKey == nil {
		return nil, errors.New("gateway: WTLS config with certificate and key required")
	}
	if len(cfg.RandSeed) == 0 {
		return nil, errors.New("gateway: RandSeed required")
	}
	c := cfg.withDefaults()
	s := &Server{
		cfg:     c,
		ln:      ln,
		sem:     make(chan struct{}, c.MaxConns),
		connCh:  make(chan acceptedConn),
		stop:    make(chan struct{}),
		active:  make(map[net.Conn]struct{}, c.MaxConns),
		started: time.Now(),
	}
	s.bufPool.New = func() any { return make([]byte, c.EchoBufBytes) }
	journal.Emit(0, journal.LevelInfo, "gateway", "listening",
		journal.S("addr", ln.Addr().String()),
		journal.I("max_conns", int64(c.MaxConns)), journal.I("workers", int64(c.Workers)))
	s.wg.Add(1)
	go s.acceptLoop()
	for i := 0; i < c.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Addr returns the listener address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Stats returns a snapshot of the lifetime counters.
func (s *Server) Stats() Stats {
	return Stats{
		Accepted:          s.accepted.Load(),
		Handshakes:        s.handshakes.Load(),
		HandshakeFailures: s.hsFailures.Load(),
		SessionsDone:      s.sessions.Load(),
		EchoBytes:         s.echoBytes.Load(),
		PanicsRecovered:   s.panics.Load(),
		ForcedCloses:      s.forced.Load(),
		PeakActive:        s.peakActive.Load(),
	}
}

// Progress reports sessions done of those accepted for /progress. The
// total grows as clients arrive, so there is no ETA.
func (s *Server) Progress() obs.Progress {
	s.mu.Lock()
	active := !s.draining
	s.mu.Unlock()
	p := obs.Progress{
		Active:  active,
		Label:   "gateway",
		Unit:    "sessions",
		Total:   s.accepted.Load(),
		Done:    s.sessions.Load(),
		Workers: s.cfg.Workers,
	}.Timed(s.started)
	p.ETAMS = -1
	return p
}

// acceptLoop pulls connections while capacity remains, backing off on
// temporary accept errors instead of hot-looping a full FD table.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	defer close(s.connCh)
	backoff := 5 * time.Millisecond
	const maxBackoff = time.Second
	for {
		// A semaphore slot is held from before Accept until the worker
		// finishes the session, so at most MaxConns connections are in
		// flight and the listener itself is the overflow queue.
		select {
		case s.sem <- struct{}{}:
		case <-s.stop:
			return
		}
		conn, err := s.ln.Accept()
		if err != nil {
			<-s.sem
			select {
			case <-s.stop:
				return
			default:
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			if te, ok := err.(interface{ Temporary() bool }); ok && te.Temporary() {
				// EMFILE/ENFILE-style pressure: back off and retry.
				journal.Emit(0, journal.LevelWarn, "gateway", "accept_backoff",
					journal.S("err", err.Error()), journal.I("backoff_ms", int64(backoff/time.Millisecond)))
				time.Sleep(backoff)
				if backoff *= 2; backoff > maxBackoff {
					backoff = maxBackoff
				}
				continue
			}
			return // listener is gone
		}
		backoff = 5 * time.Millisecond
		s.accepted.Add(1)
		mAccepted.Inc()
		var acceptUS int64
		if obs.DTraceEnabled() {
			acceptUS = obs.DTraceNowUS()
		}
		s.track(conn)
		select {
		case s.connCh <- acceptedConn{conn: conn, acceptUS: acceptUS}:
		case <-s.stop:
			s.untrack(conn)
			conn.Close()
			<-s.sem
			return
		}
	}
}

func (s *Server) track(conn net.Conn) {
	s.mu.Lock()
	s.active[conn] = struct{}{}
	if s.draining {
		// Joined during drain: inherit the drain deadline immediately.
		_ = conn.SetDeadline(s.drainBy)
	}
	s.mu.Unlock()
	n := s.nActive.Add(1)
	for {
		peak := s.peakActive.Load()
		if n <= peak || s.peakActive.CompareAndSwap(peak, n) {
			break
		}
	}
	gActive.Set(float64(n))
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.active, conn)
	s.mu.Unlock()
	gActive.Set(float64(s.nActive.Add(-1)))
}

// acceptedConn pairs a connection with the tracer-clock reading at
// accept, so the worker that eventually serves it can attribute the
// queue wait (accept → serve) to the session's server_queue span.
type acceptedConn struct {
	conn     net.Conn
	acceptUS int64
}

func (s *Server) worker() {
	defer s.wg.Done()
	for ac := range s.connCh {
		s.serveConn(ac.conn, ac.acceptUS)
		<-s.sem
	}
}

// readDeadline is the next record deadline: the idle timeout, clipped
// to the drain deadline once shutdown has begun.
func (s *Server) readDeadline() time.Time {
	d := time.Now().Add(s.cfg.IdleTimeout)
	s.mu.Lock()
	if s.draining && d.After(s.drainBy) {
		d = s.drainBy
	}
	s.mu.Unlock()
	return d
}

func (s *Server) drainingNow() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// sessionRec is the one record of a session. endSession derives
// everything reported about the session from it: the wide journal event
// (a single record carrying every dimension msreport slices sessions
// by, and how the session ended), the root span's N, and the
// per-session counters.
type sessionRec struct {
	id          int64
	start       time.Time
	handshook   bool
	suite       string
	resumed     bool
	handshakeUS int64
	records     int64
	bytes       int64
	closeReason string
	err         error
	panic       any
	trace       uint64
}

// endSession closes out one session from its record. The wide event's
// t_sim is the connection id; its level is info for a clean session,
// warn when the session ended on an error and crit for a recovered
// panic. Sessions done moves last, so a Stats reader that sees it
// already sees the session's other counters.
func (s *Server) endSession(conn net.Conn, rec *sessionRec, root *obs.DSpan) {
	lv := journal.LevelInfo
	if rec.panic != nil {
		lv = journal.LevelCrit
	} else if rec.err != nil {
		lv = journal.LevelWarn
	}
	if journal.On(lv) {
		fields := []journal.Field{
			journal.S("peer", conn.RemoteAddr().String()),
			journal.S("suite", rec.suite),
			journal.B("resumed", rec.resumed),
			journal.I("handshake_us", rec.handshakeUS),
			journal.I("records", rec.records),
			journal.I("bytes", rec.bytes),
			journal.I("duration_us", time.Since(rec.start).Microseconds()),
			journal.S("close_reason", rec.closeReason),
		}
		if rec.err != nil {
			fields = append(fields, journal.S("err", rec.err.Error()))
		}
		if rec.panic != nil {
			fields = append(fields, journal.S("panic", fmt.Sprint(rec.panic)))
		}
		if rec.trace != 0 {
			// Same 16-hex-digit spelling as the trace JSONL and the report
			// waterfall, so wide events and spans cross-link by exact match.
			fields = append(fields, journal.S("trace_id", obs.TraceHex(rec.trace)))
		}
		journal.Emit(rec.id, lv, "gateway", "session", fields...)
	}
	root.SetN(rec.bytes)
	root.End()

	if rec.handshook {
		s.handshakes.Add(1)
		mHandshakes.Inc()
	} else if rec.closeReason == "handshake_failed" {
		s.hsFailures.Add(1)
		mHSFailures.Inc()
	}
	if rec.panic != nil {
		s.panics.Add(1)
		mPanics.Inc()
	}
	s.sessions.Add(1)
	mSessions.Inc()
}

// serveConn runs one session: handshake under deadline, then an echo
// loop until EOF, error, idle timeout or drain. A panicking session
// must not take the worker (or the process) down with it.
func (s *Server) serveConn(conn net.Conn, acceptUS int64) {
	rec := sessionRec{id: s.connSeq.Add(1), start: time.Now(), closeReason: "unknown"}
	var serveUS int64
	if obs.DTraceEnabled() {
		serveUS = obs.DTraceNowUS()
	}
	var root *obs.DSpan
	defer func() {
		if r := recover(); r != nil {
			rec.closeReason = "panic"
			rec.panic = r
		}
		conn.Close()
		s.untrack(conn)
		s.endSession(conn, &rec, root)
	}()

	wcfg := *s.cfg.WTLS
	wcfg.Rand = prng.NewDRBG(append(append([]byte{}, s.cfg.RandSeed...), fmt.Sprintf("/conn/%d", rec.id)...))
	tc := wtls.Server(conn, &wcfg)

	_ = tc.SetDeadline(time.Now().Add(s.cfg.HandshakeTimeout))
	if err := tc.Handshake(); err != nil {
		rec.closeReason = "handshake_failed"
		rec.err = err
		return
	}
	hsNS := time.Since(rec.start).Nanoseconds()
	hHandshake.Observe(hsNS)
	state := tc.State()
	rec.handshook = true
	rec.handshakeUS = hsNS / 1000
	rec.resumed = state.Resumed
	if state.Suite != nil {
		rec.suite = state.Suite.Name
	}
	if testHookSession != nil {
		testHookSession(rec.id)
	}

	buf := s.bufPool.Get().([]byte)
	defer s.bufPool.Put(buf) //nolint:staticcheck // fixed-size []byte reuse

	first := true
	for {
		_ = tc.SetReadDeadline(s.readDeadline())
		n, err := tc.Read(buf)
		if err != nil {
			rec.closeReason = closeReason(err, s.drainingNow())
			if err != io.EOF {
				rec.err = err
			}
			return
		}
		data := buf[:n]
		if first {
			first = false
			data, root = s.adoptTrace(tc, &rec, data, acceptUS, serveUS)
			if len(data) == 0 {
				continue // the record carried only the trace header
			}
		}
		_ = tc.SetWriteDeadline(time.Now().Add(s.cfg.IdleTimeout))
		if _, err := tc.Write(data); err != nil {
			rec.closeReason = "write_error"
			rec.err = err
			return
		}
		rec.records++
		rec.bytes += int64(len(data))
		s.echoBytes.Add(int64(len(data)))
		mEchoBytes.Add(int64(len(data)))
		if s.drainingNow() {
			// Finish the in-flight request, then leave politely.
			tc.Close()
			rec.closeReason = "drain"
			return
		}
	}
}

// adoptTrace inspects the session's first application record for the
// client's trace context (obs/tracewire.go). A valid header is consumed
// — never echoed — and the remainder returned for echoing; the session
// root span hangs under the client's attempt span, backdated to the
// accept instant, with the queue wait (accept → serve) attributed to a
// server_queue child. A record whose first bytes match the magic but
// whose header is malformed fails closed: counted, forwarded as plain
// data, no trace adopted. This runs regardless of the local tracer
// state — the wire protocol must not change shape with whether this
// particular process happens to be tracing.
func (s *Server) adoptTrace(tc *wtls.Conn, rec *sessionRec, data []byte, acceptUS, serveUS int64) ([]byte, *obs.DSpan) {
	trace, parent, rest, err := obs.ParseTraceHeader(data)
	switch {
	case err == nil:
		rec.trace = trace
		root := obs.DefaultDTracer.RootAt(trace, parent, "gateway", "session", acceptUS)
		if root != nil {
			root.Event("gateway", "server_queue", acceptUS, serveUS-acceptUS, 0)
			// Attaching after the handshake replays the buffered phase
			// spans (hello, key_exchange, finished) under this root.
			tc.SetTraceParent(root)
		}
		return rest, root
	case errors.Is(err, obs.ErrBadTraceHeader):
		mBadTraceHdr.Inc()
		return data, nil
	default: // ErrNoTraceHeader: ordinary application data
		return data, nil
	}
}

// closeReason classifies how the echo loop ended for the session's wide
// event.
func closeReason(err error, draining bool) string {
	if err == io.EOF {
		return "eof"
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		if draining {
			return "drain_timeout"
		}
		return "idle_timeout"
	}
	return "read_error"
}

// Shutdown drains the server: stop accepting, give in-flight sessions
// until the drain deadline to finish, then force-close stragglers. It
// returns once every worker has exited — zero goroutines outlive it.
// The returned error reports forced closes (the drain was not fully
// graceful); ctx can abort the wait early, forcing immediately.
func (s *Server) Shutdown(ctx context.Context) error {
	s.stopOnce.Do(func() { close(s.stop) })
	s.ln.Close()

	deadline := time.Now().Add(s.cfg.DrainTimeout)
	s.mu.Lock()
	s.draining = true
	s.drainBy = deadline
	open := int64(len(s.active))
	// Unblock every session currently parked in a read: stalled peers
	// get exactly until the drain deadline, not one tick more.
	for conn := range s.active {
		_ = conn.SetDeadline(deadline)
	}
	s.mu.Unlock()
	journal.Emit(journal.TEnd, journal.LevelInfo, "gateway", "drain_start",
		journal.I("open_conns", open),
		journal.I("drain_ms", int64(s.cfg.DrainTimeout/time.Millisecond)))

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()

	// Grace beyond the deadline covers the instant between a deadline
	// firing and the worker observing it.
	force := time.NewTimer(time.Until(deadline) + time.Second)
	defer force.Stop()
	graceful := true
	select {
	case <-done:
	case <-ctx.Done():
		graceful = false
	case <-force.C:
		graceful = false
	}
	if !graceful {
		s.mu.Lock()
		for conn := range s.active {
			conn.Close()
			s.forced.Add(1)
			mForced.Inc()
		}
		s.mu.Unlock()
		<-done
	}
	journal.Emit(journal.TEnd, journal.LevelInfo, "gateway", "drain_done",
		journal.B("graceful", graceful), journal.I("forced", s.forced.Load()))
	if n := s.forced.Load(); n > 0 {
		return fmt.Errorf("gateway: force-closed %d connection(s) at drain deadline", n)
	}
	return nil
}

// DevPKI deterministically derives a CA, server key and certificate
// from a seed string. Gateway and load generator derive the identical
// PKI from the same seed, so a soak test needs no key distribution.
// The two keys come from independent DRBGs, so they are derived at once
// on two goroutines; both have finished when DevPKI returns.
func DevPKI(seed, serverName string, bits int) (*wtls.CA, *rsa.PrivateKey, *wtls.Certificate, error) {
	var ca *wtls.CA
	caErr := make(chan error, 1)
	go func() {
		var err error
		ca, err = wtls.NewCA("mobilesec-dev-ca", prng.NewDRBG([]byte(seed+"/ca")), bits)
		caErr <- err
	}()
	key, keyErr := rsa.GenerateKey(prng.NewDRBG([]byte(seed+"/server")), bits)
	if err := <-caErr; err != nil {
		return nil, nil, nil, fmt.Errorf("gateway: dev CA: %w", err)
	}
	if keyErr != nil {
		return nil, nil, nil, fmt.Errorf("gateway: dev server key: %w", keyErr)
	}
	cert, err := ca.Issue(serverName, 1, &key.PublicKey)
	if err != nil {
		return nil, nil, nil, err
	}
	return ca, key, cert, nil
}
