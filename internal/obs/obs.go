// Package obs is the repository's zero-dependency observability layer:
// a concurrent-safe metrics registry (counters, gauges, fixed-bucket
// histograms), a hierarchical span tracer with a bounded ring buffer
// (see dtrace.go), a windowed time-series recorder over the registry
// (see series.go), and opt-in pprof/expvar/live HTTP endpoints for the
// long-running cmd tools (see http.go). Every cmd reaches them, and the
// prof and journal subpackages, through one front door: the CLI's sink
// table (see cli.go).
//
// The paper's headline figures are measurement claims; this package
// makes the simulator's own spending measurable per layer, so a MIPS or
// joule regression can be attributed to crypto, ARQ, chaos, energy or
// sweep scheduling instead of guessed at from end-to-end numbers.
//
// Design constraints, in order:
//
//  1. Disabled must be almost free. Every instrument is a static handle
//     (package-level var in the instrumented layer, created at init via
//     C/G/H). When the registry is disarmed — the default — Add/Set/
//     Observe are a nil-or-flag check and return: no allocation, no
//     atomic write, no map lookup. Figure outputs stay byte-identical
//     and the benchreg gate is unaffected.
//  2. Enabled must be cheap and deterministic. Counters and histograms
//     are atomics (no locks on the hot path); histogram buckets are
//     fixed at creation so the exported layout never depends on the
//     observations; snapshots sort by name so JSON output is stable.
//  3. No dependencies beyond the standard library.
package obs

import (
	"encoding/json"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry owns a namespace of metrics. The zero value is not usable;
// create with NewRegistry. A nil *Registry is valid everywhere and
// hands out nil instruments whose methods are no-ops, so callers can
// thread "no observability" without branching.
type Registry struct {
	armed atomic.Bool

	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry creates an empty, disarmed registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// SetEnabled arms or disarms the registry. Instruments of a disarmed
// registry ignore updates (near-zero overhead); snapshots still work.
func (r *Registry) SetEnabled(on bool) {
	if r != nil {
		r.armed.Store(on)
	}
}

// Enabled reports whether the registry is armed. It is the fast check
// instrumented layers use before doing any enabled-only work (like
// reading the clock for a histogram sample).
func (r *Registry) Enabled() bool { return r != nil && r.armed.Load() }

// Counter returns the named counter, creating it on first use. The same
// name always returns the same handle. A nil registry returns nil.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{name: name, armed: &r.armed}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{name: name, armed: &r.armed}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// fixed bucket upper bounds (ascending; an implicit +Inf bucket is
// appended). The layout is fixed at creation: a later call with
// different bounds returns the existing histogram unchanged, keeping
// the exported shape deterministic.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		bs := make([]int64, len(bounds))
		copy(bs, bounds)
		sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
		h = &Histogram{
			name:     name,
			armed:    &r.armed,
			bounds:   bs,
			counts:   make([]atomic.Int64, len(bs)+1),
			exemplar: make([]atomic.Uint64, len(bs)+1),
		}
		r.histograms[name] = h
	}
	return h
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	name  string
	armed *atomic.Bool
	v     atomic.Int64
}

// Add increments the counter by n when its registry is armed. Safe on a
// nil handle; allocation-free in both states.
func (c *Counter) Add(n int64) {
	if c == nil || !c.armed.Load() {
		return
	}
	c.v.Add(n)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil handle).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins float64 instrument.
type Gauge struct {
	name  string
	armed *atomic.Bool
	bits  atomic.Uint64
}

// Set records the gauge value when its registry is armed.
func (g *Gauge) Set(v float64) {
	if g == nil || !g.armed.Load() {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last set value (0 on a nil handle).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket integer histogram (typically nanoseconds
// or bytes). Bucket counts and the sum are atomics; because the layout
// is fixed and counts are order-independent, a concurrent sweep yields
// the same exported histogram regardless of worker interleaving.
type Histogram struct {
	name     string
	armed    *atomic.Bool
	bounds   []int64 // ascending upper bounds; counts has one extra +Inf slot
	counts   []atomic.Int64
	exemplar []atomic.Uint64 // last trace ID that landed in each bucket
	count    atomic.Int64
	sum      atomic.Int64
}

// Observe records one sample when the registry is armed. Safe on a nil
// handle; allocation-free.
func (h *Histogram) Observe(v int64) {
	if h == nil || !h.armed.Load() {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveEx records one sample and, when trace is nonzero, stamps it
// as the bucket's exemplar: the trace ID of the most recent session
// that landed there, linking a histogram tail (say the p99 bucket of
// load.handshake_ns) to a concrete trace the waterfall panel can open.
// Last-writer-wins by design — an exemplar is a witness, not a count.
func (h *Histogram) ObserveEx(v int64, trace uint64) {
	if h == nil || !h.armed.Load() {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	if trace != 0 {
		h.exemplar[i].Store(trace)
	}
}

// Count returns the number of samples observed (0 on a nil handle).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed samples (0 on a nil handle).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// CounterValue is one exported counter.
type CounterValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeValue is one exported gauge.
type GaugeValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// HistogramValue is one exported histogram. Bounds[i] is the inclusive
// upper bound of Counts[i]; Counts has one extra overflow (+Inf) slot.
// P50/P95/P99 are nearest-rank quantiles resolved to bucket upper
// bounds (see BucketQuantile); 0 when the histogram is empty.
type HistogramValue struct {
	Name   string  `json:"name"`
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
	P50    int64   `json:"p50"`
	P95    int64   `json:"p95"`
	P99    int64   `json:"p99"`
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
	// Exemplars[i] is the hex trace ID of the last traced session that
	// landed in Counts[i] ("" when none); omitted entirely when no
	// bucket has one, so untraced runs serialize exactly as before.
	Exemplars []string `json:"exemplars,omitempty"`
}

// BucketQuantile returns the nearest-rank q-quantile of a fixed-bucket
// histogram as the upper bound of the bucket the rank lands in. counts
// must have one more slot than bounds (the overflow bucket); samples in
// overflow report the largest finite bound, because the layout cannot
// resolve beyond it. Returns 0 for an empty histogram or q outside
// (0, 1].
func BucketQuantile(bounds, counts []int64, q float64) int64 {
	if q <= 0 || q > 1 || len(bounds) == 0 {
		return 0
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	var cum int64
	for i, c := range counts {
		cum += c
		if cum >= rank {
			if i >= len(bounds) {
				return bounds[len(bounds)-1]
			}
			return bounds[i]
		}
	}
	return bounds[len(bounds)-1]
}

// TraceStats is the trace ring's health summary, embedded in metric
// snapshots when tracing is active so a truncated trace is visible in
// the same artifact as the metrics it accompanies.
type TraceStats struct {
	Recorded uint64 `json:"recorded"`
	Dropped  uint64 `json:"dropped"`
	Capacity int    `json:"capacity"`
}

// Snapshot is a deterministic point-in-time export of a registry:
// every metric class sorted by name.
type Snapshot struct {
	GoVersion  string           `json:"go_version"`
	Counters   []CounterValue   `json:"counters"`
	Gauges     []GaugeValue     `json:"gauges"`
	Histograms []HistogramValue `json:"histograms"`
	// DTrace is the span ring's health, embedded when -dtrace is active.
	DTrace *TraceStats `json:"dtrace,omitempty"`
}

// WriteJSON serializes the snapshot as indented JSON.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	blob, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	_, err = w.Write(blob)
	return err
}

// Snapshot exports the registry's current state with all metric names
// sorted, so the same set of observations always serializes identically.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{GoVersion: runtime.Version()}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		s.Counters = append(s.Counters, CounterValue{Name: c.name, Value: c.Value()})
	}
	for _, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeValue{Name: g.name, Value: g.Value()})
	}
	for _, h := range r.histograms {
		hv := HistogramValue{
			Name:   h.name,
			Count:  h.count.Load(),
			Sum:    h.sum.Load(),
			Bounds: append([]int64{}, h.bounds...),
		}
		for i := range h.counts {
			hv.Counts = append(hv.Counts, h.counts[i].Load())
		}
		any := false
		for i := range h.exemplar {
			if h.exemplar[i].Load() != 0 {
				any = true
				break
			}
		}
		if any {
			hv.Exemplars = make([]string, len(h.exemplar))
			for i := range h.exemplar {
				if id := h.exemplar[i].Load(); id != 0 {
					hv.Exemplars[i] = TraceHex(id)
				}
			}
		}
		hv.P50 = BucketQuantile(hv.Bounds, hv.Counts, 0.50)
		hv.P95 = BucketQuantile(hv.Bounds, hv.Counts, 0.95)
		hv.P99 = BucketQuantile(hv.Bounds, hv.Counts, 0.99)
		s.Histograms = append(s.Histograms, hv)
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// WriteJSON serializes the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	s := r.Snapshot()
	return s.WriteJSON(w)
}

// Default is the process-wide registry the instrumented layers bind
// their static handles to at package init. It exists from process start
// but stays disarmed until a cmd opts in (see CLI), so the hot paths
// pay only the armed-flag check by default.
var Default = NewRegistry()

// Enabled reports whether the default registry is armed — the fast
// gate for enabled-only work such as reading the clock.
func Enabled() bool { return Default.Enabled() }

// C returns a counter in the default registry (for static handles).
func C(name string) *Counter { return Default.Counter(name) }

// G returns a gauge in the default registry.
func G(name string) *Gauge { return Default.Gauge(name) }

// H returns a histogram in the default registry.
func H(name string, bounds []int64) *Histogram { return Default.Histogram(name, bounds) }

// DurationBuckets is the shared fixed bucket layout for nanosecond
// timings: 1µs to ~1s in decade-and-a-half steps.
var DurationBuckets = []int64{
	1_000, 5_000, 10_000, 50_000, 100_000, 500_000,
	1_000_000, 5_000_000, 10_000_000, 50_000_000, 100_000_000, 1_000_000_000,
}

// SizeBuckets is the shared fixed bucket layout for byte sizes: 16 B to
// 64 KB in powers of four.
var SizeBuckets = []int64{16, 64, 256, 1024, 4096, 16384, 65536}
