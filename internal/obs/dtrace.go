package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the package's span tracer, hierarchical and
// cross-process. Spans carry deterministic 64-bit trace/span/parent IDs
// derived from the run's seeded randomness — never from the wall clock
// or math/rand — so the ID structure of a trace is a pure function of
// the seed and is byte-diffable across worker counts. The client half of a session
// hands its (trace, span) pair to the server in the first application
// record (see tracewire.go), which is how an msload session and the
// msgateway session serving it merge into one end-to-end trace.
//
// Design constraints match the rest of the package: disarmed cost is
// one atomic load and zero allocations per span site, armed recording
// is a mutex-guarded copy into a preallocated ring slot, and exports
// sort by (trace, span) so concurrent sessions serialize identically
// regardless of goroutine interleaving.

// SpanRec is one completed span. StartUS/DurUS are microseconds on the
// recording process's tracer clock (zeroed in canonical mode, where
// only the deterministic structure is exported).
type SpanRec struct {
	Trace   uint64 // 64-bit trace ID shared by every span of a session
	Span    uint64 // this span's ID, a pure function of parent+name+ord
	Parent  uint64 // parent span ID; 0 for a root with no parent
	Ord     uint32 // child ordinal within the parent (creation order)
	Proc    string // recording process name ("msload", "msgateway", …)
	Layer   string // subsystem: load, wtls, gateway, arq, …
	Name    string // span name: session, attempt, key_exchange, …
	StartUS int64  // µs since the tracer's epoch (0 in canonical mode)
	DurUS   int64  // span duration in µs (0 in canonical mode)
	N       int64  // optional magnitude (bytes, retries, …)
}

// splitmix64 is the finalizer used for all ID mixing: cheap, stateless
// and full-period, so derived IDs are evaluation-order independent.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// fnv64a hashes layer and name with a separator so ("ab","c") and
// ("a","bc") land on different IDs.
func fnv64a(layer, name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(layer); i++ {
		h = (h ^ uint64(layer[i])) * 1099511628211
	}
	h = (h ^ 0) * 1099511628211
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	return h
}

// nonzero maps the (astronomically unlikely) zero ID to a fixed
// constant: 0 is reserved as "no trace / no parent" on the wire.
func nonzero(id uint64) uint64 {
	if id == 0 {
		return 0x9E3779B97F4A7C15
	}
	return id
}

// TraceIDFromBytes folds DRBG output into a nonzero trace ID. Sessions
// derive their ID from their own seeded DRBG stream (8 bytes), so the
// ID is deterministic per (seed, session) and uniform across sessions.
func TraceIDFromBytes(b []byte) uint64 {
	var x uint64
	for i, c := range b {
		x ^= uint64(c) << (8 * uint(i%8))
	}
	return nonzero(splitmix64(x))
}

// TraceID derives a nonzero trace ID from a (seed, session) pair for
// callers without a DRBG at hand (simulations, tests).
func TraceID(seed, session int64) uint64 {
	return nonzero(splitmix64(uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(session)))
}

// DeriveSpanID is the pure function giving every span its ID: mix the
// parent's ID (the trace ID for roots), the span's layer/name, and its
// child ordinal. Two runs that build the same tree get the same IDs.
func DeriveSpanID(parent uint64, layer, name string, ord uint32) uint64 {
	return nonzero(splitmix64(parent ^ fnv64a(layer, name) ^ (uint64(ord)+1)*0x9E3779B97F4A7C15))
}

// TraceHex renders an ID the way every artifact spells it: 16 lowercase
// hex digits, zero-padded, so journal fields, JSONL exports and report
// panels cross-link by exact string match.
func TraceHex(id uint64) string { return fmt.Sprintf("%016x", id) }

// DTracer records completed spans into a bounded ring. Disarmed (the
// default) every entry point is one atomic load; the ring itself is
// allocated lazily on first arm so idle binaries pay nothing.
type DTracer struct {
	armed  atomic.Bool
	sample atomic.Int64 // keep 1 in N traces; <=1 keeps all
	canon  atomic.Bool  // zero timestamps for byte-diffable exports

	mu      sync.Mutex
	proc    string
	epoch   time.Time
	cap     int
	buf     []SpanRec
	next    uint64 // spans ever recorded
	dropped uint64 // spans overwritten by ring wraparound
}

// NewDTracer creates a disarmed tracer holding at most capacity spans
// (minimum 16).
func NewDTracer(capacity int) *DTracer {
	if capacity < 16 {
		capacity = 16
	}
	return &DTracer{cap: capacity}
}

// SetEnabled arms or disarms the tracer. Arming allocates the ring and
// starts the clock on first use.
func (t *DTracer) SetEnabled(on bool) {
	if t == nil {
		return
	}
	if on {
		t.mu.Lock()
		if t.buf == nil {
			t.buf = make([]SpanRec, 0, t.cap)
		}
		if t.epoch.IsZero() {
			t.epoch = time.Now()
		}
		t.mu.Unlock()
	}
	t.armed.Store(on)
}

// Enabled reports whether the tracer is armed — the fast gate span
// sites check before reading the clock.
func (t *DTracer) Enabled() bool { return t != nil && t.armed.Load() }

// SetProc names the recording process; it is stamped on every span so
// merged multi-process traces keep their halves apart.
func (t *DTracer) SetProc(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.proc = name
	t.mu.Unlock()
}

// SetSampleN keeps 1 in n traces (head-based: the decision is a pure
// function of the trace ID, so client and server keep the same set and
// every process of a run agrees without coordination). n <= 1 keeps all.
func (t *DTracer) SetSampleN(n int) {
	if t != nil {
		t.sample.Store(int64(n))
	}
}

// SetCanonical zeroes span timestamps at record time, leaving only the
// deterministic (IDs, structure, N) content — the mode CI byte-diffs
// across worker counts.
func (t *DTracer) SetCanonical(on bool) {
	if t != nil {
		t.canon.Store(on)
	}
}

// Keep reports the head-based sampling decision for a trace ID.
func (t *DTracer) Keep(trace uint64) bool {
	if t == nil {
		return false
	}
	n := t.sample.Load()
	if n <= 1 {
		return true
	}
	return splitmix64(trace)%uint64(n) == 0
}

// NowUS returns the tracer's clock: µs since arm, or 0 in canonical
// mode. Callers use it to stamp retroactive spans (server queue wait,
// buffered handshake phases) on the same timebase as live spans.
func (t *DTracer) NowUS() int64 {
	if t == nil || t.canon.Load() {
		return 0
	}
	t.mu.Lock()
	epoch := t.epoch
	t.mu.Unlock()
	if epoch.IsZero() {
		return 0
	}
	return time.Since(epoch).Microseconds()
}

// mTraceSpans / mTraceDropped export ring health through the metrics
// registry (and so the /metrics JSON): spans recorded and spans
// the ring overwrote.
var (
	mTraceSpans   = C("obs.trace_spans")
	mTraceDropped = C("obs.trace_dropped")
)

// record appends one span to the ring (overwriting the oldest on wrap)
// and feeds the obs.trace_spans / obs.trace_dropped counters.
func (t *DTracer) record(r SpanRec) {
	t.mu.Lock()
	r.Proc = t.proc
	if t.canon.Load() {
		r.StartUS, r.DurUS = 0, 0
	}
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, r)
	} else if cap(t.buf) > 0 {
		t.buf[int(t.next)%cap(t.buf)] = r
		t.dropped++
		mTraceDropped.Inc()
	}
	t.next++
	t.mu.Unlock()
	mTraceSpans.Inc()
}

// DSpan is an in-flight span. A nil *DSpan is the disarmed/unsampled
// form: every method is a nil-check no-op, so call sites never branch.
type DSpan struct {
	t      *DTracer
	trace  uint64
	id     uint64
	parent uint64
	ord    uint32
	layer  string
	name   string
	start  int64
	n      atomic.Int64
	kids   atomic.Uint32
}

// Root starts a new local root span for trace. Returns nil when the
// tracer is disarmed or the trace is not sampled.
func (t *DTracer) Root(trace uint64, layer, name string) *DSpan {
	if t == nil || !t.armed.Load() {
		return nil
	}
	return t.RootAt(trace, 0, layer, name, t.NowUS())
}

// RootAt starts a root span with an explicit remote parent (0 for none)
// and an explicit start time — the server half of a session uses it to
// hang itself under the client span that arrived on the wire, backdated
// to the accept instant.
func (t *DTracer) RootAt(trace, parent uint64, layer, name string, startUS int64) *DSpan {
	if t == nil || !t.armed.Load() || !t.Keep(trace) {
		return nil
	}
	return &DSpan{
		t: t, trace: trace, parent: parent,
		id:    DeriveSpanID(trace^parent, layer, name, 0),
		layer: layer, name: name, start: startUS,
	}
}

// Child starts a sub-span. Safe (and free) on a nil receiver.
func (s *DSpan) Child(layer, name string) *DSpan {
	if s == nil {
		return nil
	}
	return s.ChildAt(layer, name, s.t.NowUS())
}

// ChildAt starts a sub-span with an explicit start time.
func (s *DSpan) ChildAt(layer, name string, startUS int64) *DSpan {
	if s == nil {
		return nil
	}
	ord := s.kids.Add(1) - 1
	return &DSpan{
		t: s.t, trace: s.trace, parent: s.id, ord: ord,
		id:    DeriveSpanID(s.id, layer, name, ord),
		layer: layer, name: name, start: startUS,
	}
}

// Event records a completed leaf child in one call — the shape used by
// hot sites (record batches, retransmits) that should not juggle a
// span object.
func (s *DSpan) Event(layer, name string, startUS, durUS, n int64) {
	if s == nil {
		return
	}
	if durUS < 0 {
		durUS = 0
	}
	ord := s.kids.Add(1) - 1
	s.t.record(SpanRec{
		Trace: s.trace, Span: DeriveSpanID(s.id, layer, name, ord),
		Parent: s.id, Ord: ord, Layer: layer, Name: name,
		StartUS: startUS, DurUS: durUS, N: n,
	})
}

// SetN attaches a magnitude to the span.
func (s *DSpan) SetN(n int64) {
	if s != nil {
		s.n.Store(n)
	}
}

// End completes the span at the tracer clock's current reading.
func (s *DSpan) End() {
	if s == nil {
		return
	}
	s.EndAt(s.t.NowUS())
}

// EndAt completes the span at an explicit end time.
func (s *DSpan) EndAt(endUS int64) {
	if s == nil {
		return
	}
	dur := endUS - s.start
	if dur < 0 {
		dur = 0
	}
	s.t.record(SpanRec{
		Trace: s.trace, Span: s.id, Parent: s.parent, Ord: s.ord,
		Layer: s.layer, Name: s.name,
		StartUS: s.start, DurUS: dur, N: s.n.Load(),
	})
}

// TraceID returns the span's trace ID (0 on nil) — what goes on the
// wire and into journal trace_id fields.
func (s *DSpan) TraceID() uint64 {
	if s == nil {
		return 0
	}
	return s.trace
}

// ID returns the span's own ID (0 on nil).
func (s *DSpan) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Spans returns the buffered spans sorted by (trace, span, parent,
// ord): a canonical order independent of recording interleave, so the
// same logical run exports identically at any concurrency.
func (t *DTracer) Spans() []SpanRec {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]SpanRec{}, t.buf...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Trace != b.Trace {
			return a.Trace < b.Trace
		}
		if a.Span != b.Span {
			return a.Span < b.Span
		}
		if a.Parent != b.Parent {
			return a.Parent < b.Parent
		}
		return a.Ord < b.Ord
	})
	return out
}

// Stats summarizes ring health for metric snapshots.
func (t *DTracer) Stats() TraceStats {
	if t == nil {
		return TraceStats{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return TraceStats{Recorded: t.next, Dropped: t.dropped, Capacity: t.cap}
}

// Reset empties the ring and zeroes the recorded/dropped counters
// without changing the armed state — test isolation, mostly.
func (t *DTracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.buf = t.buf[:0]
	t.next, t.dropped = 0, 0
	t.mu.Unlock()
}

// spanLine is the JSONL field layout; IDs travel as fixed-width hex so
// the file greps and sorts the way the report panels spell them.
type spanLine struct {
	Trace  string `json:"trace"`
	Span   string `json:"span"`
	Parent string `json:"parent,omitempty"`
	Ord    uint32 `json:"ord"`
	Proc   string `json:"proc,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_us"`
	Dur    int64  `json:"dur_us"`
	N      int64  `json:"n,omitempty"`
}

func toLine(r SpanRec) spanLine {
	l := spanLine{
		Trace: TraceHex(r.Trace), Span: TraceHex(r.Span),
		Ord: r.Ord, Proc: r.Proc, Layer: r.Layer, Name: r.Name,
		Start: r.StartUS, Dur: r.DurUS, N: r.N,
	}
	if r.Parent != 0 {
		l.Parent = TraceHex(r.Parent)
	}
	return l
}

// WriteJSONL exports the sorted spans, one JSON object per line.
func (t *DTracer) WriteJSONL(w io.Writer) error {
	for _, r := range t.Spans() {
		blob, err := json.Marshal(toLine(r))
		if err != nil {
			return err
		}
		if _, err := w.Write(append(blob, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// ReadSpans loads a span JSONL stream, returning the parsed spans and
// the number of malformed lines skipped (mirroring the journal loader:
// a truncated artifact should degrade, not abort, a report).
func ReadSpans(r io.Reader) ([]SpanRec, int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []SpanRec
	skipped := 0
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var l spanLine
		if err := json.Unmarshal(line, &l); err != nil {
			skipped++
			continue
		}
		rec := SpanRec{
			Ord: l.Ord, Proc: l.Proc, Layer: l.Layer, Name: l.Name,
			StartUS: l.Start, DurUS: l.Dur, N: l.N,
		}
		var err error
		if rec.Trace, err = strconv.ParseUint(l.Trace, 16, 64); err != nil {
			skipped++
			continue
		}
		if rec.Span, err = strconv.ParseUint(l.Span, 16, 64); err != nil {
			skipped++
			continue
		}
		if l.Parent != "" {
			if rec.Parent, err = strconv.ParseUint(l.Parent, 16, 64); err != nil {
				skipped++
				continue
			}
		}
		out = append(out, rec)
	}
	return out, skipped, sc.Err()
}

// ReadSpansFile loads a span JSONL file.
func ReadSpansFile(path string) ([]SpanRec, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("obs: %w", err)
	}
	defer f.Close()
	return ReadSpans(f)
}

// DefaultDTracer is the process-wide distributed tracer, disarmed until
// a cmd opts in with -dtrace.
var DefaultDTracer = NewDTracer(1 << 16)

// DTraceEnabled reports whether the default distributed tracer is armed.
func DTraceEnabled() bool { return DefaultDTracer.Enabled() }

// DTraceNowUS reads the default distributed tracer's clock.
func DTraceNowUS() int64 { return DefaultDTracer.NowUS() }
