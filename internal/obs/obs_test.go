package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/obs/journal"
	"repro/internal/obs/prof"
)

func TestCounterDisarmedIgnoresUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Add(5)
	if got := c.Value(); got != 0 {
		t.Fatalf("disarmed counter accumulated %d", got)
	}
	r.SetEnabled(true)
	c.Add(5)
	c.Inc()
	if got := c.Value(); got != 6 {
		t.Fatalf("armed counter = %d, want 6", got)
	}
	r.SetEnabled(false)
	c.Add(100)
	if got := c.Value(); got != 6 {
		t.Fatalf("re-disarmed counter = %d, want 6", got)
	}
}

func TestNilRegistryAndInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	if r.Enabled() {
		t.Fatal("nil registry reports enabled")
	}
	r.SetEnabled(true) // must not panic
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", []int64{1, 2})
	c.Add(1)
	c.Inc()
	g.Set(3.5)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments accumulated state")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
}

func TestCounterHandleIsStable(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("same name returned different counter handles")
	}
	if r.Histogram("h", []int64{1}) != r.Histogram("h", []int64{9, 9, 9}) {
		t.Fatal("same name returned different histogram handles")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	h := r.Histogram("lat", []int64{10, 100, 1000})
	for _, v := range []int64{5, 10, 11, 100, 500, 5000} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if h.Sum() != 5+10+11+100+500+5000 {
		t.Fatalf("sum = %d", h.Sum())
	}
	snap := r.Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatalf("histograms in snapshot = %d", len(snap.Histograms))
	}
	hv := snap.Histograms[0]
	want := []int64{2, 2, 1, 1} // ≤10, ≤100, ≤1000, overflow
	if len(hv.Counts) != len(want) {
		t.Fatalf("bucket count slots = %d, want %d", len(hv.Counts), len(want))
	}
	for i, w := range want {
		if hv.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d", i, hv.Counts[i], w)
		}
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	const goroutines, perG = 8, 1000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared")
			h := r.Histogram("sizes", SizeBuckets)
			for j := 0; j < perG; j++ {
				c.Inc()
				h.Observe(int64(j))
				r.Gauge("last").Set(float64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := r.Histogram("sizes", SizeBuckets).Count(); got != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*perG)
	}
}

func TestSnapshotDeterministicOrderAndJSON(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	r.Counter("z").Inc()
	r.Counter("a").Inc()
	r.Gauge("m").Set(1)
	snap := r.Snapshot()
	if snap.Counters[0].Name != "a" || snap.Counters[1].Name != "z" {
		t.Fatalf("counters not sorted: %+v", snap.Counters)
	}
	var b1, b2 bytes.Buffer
	if err := r.WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("snapshot JSON not stable across calls")
	}
	var decoded Snapshot
	if err := json.Unmarshal(b1.Bytes(), &decoded); err != nil {
		t.Fatalf("snapshot JSON invalid: %v", err)
	}
}

// TestTracerRingWraparound fills a 16-slot span ring with 40 root spans
// and checks that exactly the most recent 16 survive and 24 count as
// dropped.
func TestTracerRingWraparound(t *testing.T) {
	tr := NewDTracer(16)
	tr.SetEnabled(true)
	for i := 0; i < 40; i++ {
		sp := tr.Root(TraceID(7, int64(i)), "l", "e")
		sp.SetN(int64(i))
		sp.End()
	}
	spans := tr.Spans()
	if len(spans) != 16 {
		t.Fatalf("buffered spans = %d, want 16", len(spans))
	}
	if st := tr.Stats(); st.Dropped != 24 {
		t.Fatalf("dropped = %d, want 24", st.Dropped)
	}
	// Spans are exported in canonical order, so check the surviving set:
	// spans #24..#39, each once.
	seen := map[int64]bool{}
	for _, r := range spans {
		if r.N < 24 || r.N >= 40 || seen[r.N] {
			t.Fatalf("unexpected or repeated span N=%d after wraparound", r.N)
		}
		seen[r.N] = true
	}
}

// TestTracerStatsAndTruncationComment checks the ring's health summary
// and that a truncated trace is flagged in the metrics snapshot that
// accompanies it.
func TestTracerStatsAndTruncationComment(t *testing.T) {
	tr := NewDTracer(16)
	tr.SetEnabled(true)
	for i := 0; i < 28; i++ {
		tr.Root(TraceID(8, int64(i)), "l", "e").End()
	}
	st := tr.Stats()
	if st.Recorded != 28 || st.Dropped != 12 || st.Capacity != 16 {
		t.Fatalf("Stats = %+v, want {28 12 16}", st)
	}
	snap := Snapshot{DTrace: &st}
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded Snapshot
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("snapshot JSON invalid: %v", err)
	}
	if decoded.DTrace == nil || *decoded.DTrace != st {
		t.Fatalf("snapshot dtrace = %+v, want %+v", decoded.DTrace, st)
	}
	var nilTr *DTracer
	if st := nilTr.Stats(); st != (TraceStats{}) {
		t.Fatalf("nil tracer Stats = %+v", st)
	}
}

// disarmedSite is one armed-lazily sink's hot call site.
type disarmedSite struct {
	name string
	hit  func(i int)
}

// disarmedSites holds one call site per sink, each against a fresh
// disarmed instance: the state every cmd runs in unless it sets that
// sink's flag.
func disarmedSites() []disarmedSite {
	r := NewRegistry()
	c, g, h := r.Counter("c"), r.Gauge("g"), r.Histogram("h", DurationBuckets)
	tr := NewDTracer(64)
	trace := TraceID(1, 1)
	frame := prof.New().Frame("hot/path")
	j := journal.New(1024)
	ser := &SeriesRecorder{}
	return []disarmedSite{
		{"registry", func(i int) {
			c.Add(1)
			g.Set(1)
			h.Observe(int64(i))
		}},
		{"dtrace", func(int) {
			sp := tr.Root(trace, "load", "session")
			sp.Child("load", "attempt").End()
			sp.Event("load", "dial", 0, 1, 0)
			sp.End()
		}},
		{"prof", func(i int) {
			frame.Add(int64(i), 50)
			frame.AddCycles(3)
			frame.AddEnergyJ(0.5)
		}},
		{"journal", func(i int) {
			j.Emit(int64(i), journal.LevelWarn, "wep", "icv_failure",
				journal.I("frame_bytes", 24), journal.S("mode", "open"))
		}},
		{"series", func(i int) {
			ser.Tick(int64(i))
			SeriesTick(int64(i)) // the package-level form the fleet barrier calls
		}},
	}
}

// TestDisabledPathAllocationFree is the hard guarantee behind wiring
// instruments into the crypto/ARQ hot paths: with every sink disarmed
// (the default), its call sites must not allocate.
func TestDisabledPathAllocationFree(t *testing.T) {
	for _, s := range disarmedSites() {
		if n := testing.AllocsPerRun(1000, func() { s.hit(7) }); n != 0 {
			t.Errorf("disarmed %s allocates %.1f allocs/op, want 0", s.name, n)
		}
	}
}

// TestEnabledCounterAllocationFree keeps the armed path honest too: an
// armed counter/histogram update is a pure atomic operation.
func TestEnabledCounterAllocationFree(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	c := r.Counter("c")
	h := r.Histogram("h", DurationBuckets)
	if n := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		h.Observe(17)
	}); n != 0 {
		t.Fatalf("enabled counter/histogram allocate %.1f allocs/op, want 0", n)
	}
}

// BenchmarkDisarmed is the CI-enforced cost of instrumentation you did
// not ask for, one sub-benchmark per sink: an atomic load per site and
// zero allocations.
func BenchmarkDisarmed(b *testing.B) {
	for _, s := range disarmedSites() {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.hit(i)
			}
		})
	}
}

// BenchmarkEnabledCounter measures the armed atomic-add path.
func BenchmarkEnabledCounter(b *testing.B) {
	r := NewRegistry()
	r.SetEnabled(true)
	c := r.Counter("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

// BenchmarkEnabledHistogram measures the armed Observe path.
func BenchmarkEnabledHistogram(b *testing.B) {
	r := NewRegistry()
	r.SetEnabled(true)
	h := r.Histogram("bench", DurationBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i % 2_000_000))
	}
}
