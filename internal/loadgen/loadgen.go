// Package loadgen is a closed-loop WTLS load generator: a fixed pool
// of workers drives a target number of sessions against a gateway,
// each session being connect → handshake → N echoed records → close.
//
// Two properties matter more than raw throughput. First, determinism:
// every random decision (client randoms, fault schedules, retry
// jitter) derives from the top-level seed plus stable indices, so a
// soak run is reproducible. Second, persistence under faults: connect
// and handshake failures are retried with capped exponential backoff,
// because the whole point of soaking through a chaos.Conn is that
// individual attempts die.
package loadgen

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/chaos"
	"repro/internal/crypto/prng"
	"repro/internal/obs"
	"repro/internal/obs/journal"
	"repro/internal/wtls"
)

var (
	mClientsOK     = obs.C("load.clients_ok")
	mClientsFailed = obs.C("load.clients_failed")
	mRetries       = obs.C("load.retries")
	mRecords       = obs.C("load.records_echoed")
	hHandshake     = obs.H("load.handshake_ns", obs.DurationBuckets)
	hRecordRTT     = obs.H("load.record_rtt_ns", obs.DurationBuckets)
)

// Config parameterizes a load run.
type Config struct {
	// Addr is the gateway's TCP address.
	Addr string
	// WTLS is the client config template (RootCA, ServerName,
	// SessionCache); Rand is overwritten per attempt.
	WTLS *wtls.Config

	// Conns is the total number of sessions to complete. Default 100.
	Conns int
	// Concurrency is the closed-loop worker count. Default 16.
	Concurrency int
	// Records is the number of echo round-trips per session. Default 4.
	Records int
	// Payload is the bytes per record. Default 256.
	Payload int
	// Burst is how many records each round-trip writes back-to-back
	// before draining their echoes. Bursts > 1 keep several records in
	// flight, so the gateway's reader sees them buffered together and
	// the batched record path (OpenBatch/SealBatch) engages instead of
	// record-at-a-time lockstep. Default 1 (classic echo RTT).
	Burst int

	// Seed drives all client-side randomness.
	Seed int64
	// Chaos, when non-nil, wraps every dialed socket with fault
	// injection (the Seed field inside it is overridden per attempt).
	Chaos *chaos.ConnConfig

	// Attempts bounds tries per session (connect+handshake). Default 5.
	Attempts int
	// Backoff shapes the retry schedule; zero fields take the package
	// defaults, and Seed is overridden per session.
	Backoff backoff.Policy

	// DialTimeout bounds connect. Default 5s. IOTimeout bounds each
	// handshake and each record round-trip. Default 10s.
	DialTimeout time.Duration
	IOTimeout   time.Duration
}

func (c *Config) withDefaults() (Config, error) {
	d := *c
	if d.Addr == "" {
		return d, errors.New("loadgen: Addr required")
	}
	if d.WTLS == nil || d.WTLS.RootCA == nil {
		return d, errors.New("loadgen: WTLS config with RootCA required")
	}
	if d.Conns <= 0 {
		d.Conns = 100
	}
	if d.Concurrency <= 0 {
		d.Concurrency = 16
	}
	if d.Records <= 0 {
		d.Records = 4
	}
	if d.Payload <= 0 {
		d.Payload = 256
	}
	if d.Burst <= 0 {
		d.Burst = 1
	}
	if d.Attempts <= 0 {
		d.Attempts = 5
	}
	if d.DialTimeout <= 0 {
		d.DialTimeout = 5 * time.Second
	}
	if d.IOTimeout <= 0 {
		d.IOTimeout = 10 * time.Second
	}
	if d.Chaos != nil {
		cc := *d.Chaos
		d.Chaos = &cc
	}
	return d, nil
}

// Report summarizes a completed run.
type Report struct {
	Conns   int
	OK      int64
	Failed  int64
	Retries int64
	Records int64
	Elapsed time.Duration

	HandshakesPerSec float64
	RecordsPerSec    float64
	// Handshake latency percentiles over successful sessions.
	HSp50, HSp99 time.Duration
	// Record echo round-trip percentiles.
	RTTp50, RTTp99 time.Duration
}

func (r Report) String() string {
	return fmt.Sprintf(
		"conns=%d ok=%d failed=%d retries=%d records=%d elapsed=%v hs/s=%.1f rec/s=%.1f hs_p50=%v hs_p99=%v rtt_p50=%v rtt_p99=%v",
		r.Conns, r.OK, r.Failed, r.Retries, r.Records, r.Elapsed.Round(time.Millisecond),
		r.HandshakesPerSec, r.RecordsPerSec, r.HSp50, r.HSp99, r.RTTp50, r.RTTp99)
}

// Percentile returns the q-quantile (0..1) of samples by
// nearest-rank; 0 for an empty set.
func Percentile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i >= len(s) {
		i = len(s) - 1
	}
	if i < 0 {
		i = 0
	}
	return s[i]
}

// Runner executes a load run and exposes live progress.
type Runner struct {
	cfg     Config
	done    atomic.Int64
	failed  atomic.Int64
	retries atomic.Int64
	records atomic.Int64
	// started is set by Run and read by Progress, which /progress may
	// call from another goroutine at any time.
	started atomic.Pointer[time.Time]
	active  atomic.Bool

	mu      sync.Mutex
	hsLat   []time.Duration
	rttLat  []time.Duration
	lastErr error
}

// New validates cfg and prepares a Runner.
func New(cfg Config) (*Runner, error) {
	d, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Runner{cfg: d}, nil
}

// Progress reports sessions finished (ok or failed) of the run's total
// for /progress.
func (r *Runner) Progress() obs.Progress {
	var start time.Time
	if p := r.started.Load(); p != nil {
		start = *p
	}
	return obs.Progress{
		Active:  r.active.Load(),
		Label:   "load",
		Unit:    "sessions",
		Total:   int64(r.cfg.Conns),
		Done:    r.done.Load() + r.failed.Load(),
		Workers: r.cfg.Concurrency,
	}.Timed(start)
}

// Run drives the configured number of sessions to completion and
// returns the aggregate report. It blocks until all sessions have
// either succeeded or exhausted their retry budget.
func (r *Runner) Run() Report {
	start := time.Now()
	r.started.Store(&start)
	r.active.Store(true)
	defer r.active.Store(false)

	ids := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < r.cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := range ids {
				r.runSession(id)
			}
		}()
	}
	for id := 0; id < r.cfg.Conns; id++ {
		ids <- id
	}
	close(ids)
	wg.Wait()

	elapsed := time.Since(start)
	rep := Report{
		Conns:   r.cfg.Conns,
		OK:      r.done.Load(),
		Failed:  r.failed.Load(),
		Retries: r.retries.Load(),
		Records: r.records.Load(),
		Elapsed: elapsed,
	}
	if s := elapsed.Seconds(); s > 0 {
		rep.HandshakesPerSec = float64(rep.OK) / s
		rep.RecordsPerSec = float64(rep.Records) / s
	}
	r.mu.Lock()
	rep.HSp50 = Percentile(r.hsLat, 0.50)
	rep.HSp99 = Percentile(r.hsLat, 0.99)
	rep.RTTp50 = Percentile(r.rttLat, 0.50)
	rep.RTTp99 = Percentile(r.rttLat, 0.99)
	r.mu.Unlock()
	return rep
}

// LastErr returns the most recent session failure, for diagnostics.
func (r *Runner) LastErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastErr
}

// sessionStats accumulates one session's dimensions across its
// attempts for the wide event: handshake/suite state from the last
// attempt that got that far, traffic and chaos faults summed over every
// attempt (retried attempts were real wire activity).
type sessionStats struct {
	start time.Time
	// spanUS is the tracer stamp that opens the session's root and its
	// first attempt span together, then the one that closed the latest
	// attempt, which also closes the root. Scheduler delay before the
	// first attempt or after the last thus never reads as uncovered
	// session time.
	spanUS      int64
	attempts    int64
	handshakeUS int64
	resumed     bool
	suite       string
	records     int64
	bytes       int64
	chaos       chaos.ConnStats
}

// runSession completes one session, retrying connect/handshake with
// backoff. Echo failures after establishment also count as attempt
// failures: under chaos the stream can die at any record. The session
// then ends in one place, from its stats: the wide journal event (t_sim
// is the session index; info when the session succeeded, warn with its
// err when it exhausted its attempts), the root span's N, and the run's
// ok/failed counters.
func (r *Runner) runSession(id int) {
	pol := r.cfg.Backoff
	pol.Seed = r.cfg.Seed ^ int64(id)*0x9e3779b9
	st := sessionStats{start: time.Now()}
	var root *obs.DSpan
	var sleep func(time.Duration)
	if obs.DTraceEnabled() {
		// The trace ID comes from the session's own seeded DRBG stream,
		// so it is a pure function of (seed, session): the sampling
		// decision and the exported ID structure repeat run over run,
		// at any concurrency.
		var tb [8]byte
		prng.NewDRBG([]byte(fmt.Sprintf("load/trace/%d/%d", r.cfg.Seed, id))).Read(tb[:])
		st.spanUS = obs.DTraceNowUS()
		root = obs.DefaultDTracer.RootAt(obs.TraceIDFromBytes(tb[:]), 0, "load", "session", st.spanUS)
		if root != nil {
			// Backoff sleeps become spans: time the session spent parked
			// between attempts, attributed so the critical-path analyzer
			// can weigh waiting against crypto and wire time.
			sleep = func(d time.Duration) {
				t0 := obs.DTraceNowUS()
				time.Sleep(d)
				root.Event("load", "backoff_wait", t0, obs.DTraceNowUS()-t0, d.Microseconds())
			}
		}
	}
	err := backoff.Retry(r.cfg.Attempts, pol, sleep, func(attempt int) error {
		if attempt > 0 {
			r.retries.Add(1)
			mRetries.Inc()
		}
		st.attempts++
		return r.attempt(id, attempt, &st, root)
	})
	lv := journal.LevelInfo
	if err != nil {
		lv = journal.LevelWarn
	}
	if journal.On(lv) {
		fields := []journal.Field{
			journal.B("ok", err == nil),
			journal.I("attempts", st.attempts),
			journal.I("retries", st.attempts-1),
			journal.S("suite", st.suite),
			journal.B("resumed", st.resumed),
			journal.I("handshake_us", st.handshakeUS),
			journal.I("records", st.records),
			journal.I("bytes", st.bytes),
			journal.I("duration_us", time.Since(st.start).Microseconds()),
			journal.I("chaos_chunks", int64(st.chaos.Chunks)),
			journal.I("chaos_dropped", int64(st.chaos.Dropped)),
			journal.I("chaos_corrupted", int64(st.chaos.Corrupted)),
			journal.I("chaos_stalled", int64(st.chaos.Stalled)),
		}
		if err != nil {
			fields = append(fields, journal.S("err", err.Error()))
		}
		if root != nil {
			// Cross-link: the wide event carries the same 16-hex-digit ID the
			// span waterfall and the trace JSONL spell, so artifacts join by
			// exact string match.
			fields = append(fields, journal.S("trace_id", obs.TraceHex(root.TraceID())))
		}
		journal.Emit(int64(id), lv, "load", "session", fields...)
	}
	root.SetN(st.bytes)
	root.EndAt(st.spanUS)

	if err != nil {
		r.failed.Add(1)
		mClientsFailed.Inc()
		r.mu.Lock()
		r.lastErr = fmt.Errorf("session %d: %w", id, err)
		r.mu.Unlock()
	} else {
		r.done.Add(1)
		mClientsOK.Inc()
	}
}

func (r *Runner) attempt(id, attempt int, st *sessionStats, root *obs.DSpan) error {
	var asp *obs.DSpan
	if root != nil {
		if attempt > 0 {
			st.spanUS = obs.DTraceNowUS()
		}
		asp = root.ChildAt("load", "attempt", st.spanUS)
		defer func() {
			st.spanUS = obs.DTraceNowUS()
			asp.EndAt(st.spanUS)
		}()
	}
	var d0 int64
	if asp != nil {
		d0 = obs.DTraceNowUS()
	}
	raw, err := net.DialTimeout("tcp", r.cfg.Addr, r.cfg.DialTimeout)
	if asp != nil {
		asp.Event("load", "dial", d0, obs.DTraceNowUS()-d0, 0)
	}
	if err != nil {
		return fmt.Errorf("dial: %w", err)
	}
	var conn net.Conn = raw
	if r.cfg.Chaos != nil {
		cc := *r.cfg.Chaos
		// Decorrelate fault schedules across sessions and attempts
		// while keeping the whole run a pure function of the seed.
		cc.Seed = r.cfg.Seed ^ int64(id)*0x100000001b3 ^ int64(attempt)<<32
		fc, err := chaos.WrapConn(raw, cc)
		if err != nil {
			raw.Close()
			return fmt.Errorf("chaos: %w", err)
		}
		conn = fc
		defer func() {
			// Sum the faults this attempt's socket saw into the session's
			// wide event, whatever way the attempt ends.
			cs := fc.Stats()
			st.chaos.Chunks += cs.Chunks
			st.chaos.Dropped += cs.Dropped
			st.chaos.Corrupted += cs.Corrupted
			st.chaos.Stalled += cs.Stalled
			st.chaos.BadState += cs.BadState
		}()
	}

	wcfg := *r.cfg.WTLS
	wcfg.Rand = prng.NewDRBG([]byte(fmt.Sprintf("load/%d/%d/%d", r.cfg.Seed, id, attempt)))
	tc := wtls.Client(conn, &wcfg)
	defer tc.Close()
	// Attach before the handshake: the connection's phase spans (hello,
	// key_exchange, finished) and record batches nest under this attempt.
	tc.SetTraceParent(asp)

	start := time.Now()
	_ = tc.SetDeadline(time.Now().Add(r.cfg.IOTimeout))
	if err := tc.Handshake(); err != nil {
		return fmt.Errorf("handshake: %w", err)
	}
	hs := time.Since(start)
	hHandshake.Observe(hs.Nanoseconds())
	st.handshakeUS = hs.Microseconds()
	state := tc.State()
	st.resumed = state.Resumed
	if state.Suite != nil {
		st.suite = state.Suite.Name
	}
	r.mu.Lock()
	r.hsLat = append(r.hsLat, hs)
	r.mu.Unlock()

	if asp != nil {
		// First application record: hand the (trace, span) pair to the
		// server so its half of the session hangs under this attempt and
		// msreport can merge the two processes into one trace.
		if _, err := tc.Write(obs.EncodeTraceHeader(asp.TraceID(), asp.ID())); err != nil {
			return fmt.Errorf("trace header: %w", err)
		}
	}

	payload := make([]byte, r.cfg.Payload)
	wcfg.Rand.Read(payload)
	buf := make([]byte, r.cfg.Payload)
	for rec := 0; rec < r.cfg.Records; {
		burst := r.cfg.Burst
		if left := r.cfg.Records - rec; burst > left {
			burst = left
		}
		esp := asp.Child("load", "echo")
		if esp != nil {
			// Record batches written during this round nest under the
			// round's span, not as siblings of it.
			tc.SetTraceParent(esp)
		}
		t0 := time.Now()
		_ = tc.SetDeadline(time.Now().Add(r.cfg.IOTimeout))
		for i := 0; i < burst; i++ {
			if _, err := tc.Write(payload); err != nil {
				esp.End()
				return fmt.Errorf("record %d write: %w", rec+i, err)
			}
		}
		for i := 0; i < burst; i++ {
			got := 0
			for got < len(buf) {
				n, err := tc.Read(buf[got:])
				if err != nil {
					esp.End()
					return fmt.Errorf("record %d read: %w", rec+i, err)
				}
				got += n
			}
		}
		rtt := time.Since(t0)
		esp.SetN(int64(burst) * int64(r.cfg.Payload))
		esp.End()
		hRecordRTT.Observe(rtt.Nanoseconds())
		st.records += int64(burst)
		st.bytes += int64(burst) * int64(r.cfg.Payload)
		r.records.Add(int64(burst))
		mRecords.Add(int64(burst))
		r.mu.Lock()
		r.rttLat = append(r.rttLat, rtt)
		r.mu.Unlock()
		rec += burst
	}
	return nil
}
