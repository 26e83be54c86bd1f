package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// newArmedSeries builds a private registry + armed recorder pair so
// tests never touch the process-wide defaults.
func newArmedSeries(t *testing.T) (*Registry, *SeriesRecorder) {
	t.Helper()
	reg := NewRegistry()
	reg.SetEnabled(true)
	r := &SeriesRecorder{}
	r.Arm(reg, nil)
	return reg, r
}

// readSeries decodes a -series JSONL file.
func readSeries(t *testing.T, path string) []SeriesWindow {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []SeriesWindow
	for dec := json.NewDecoder(bytes.NewReader(blob)); dec.More(); {
		var w SeriesWindow
		if err := dec.Decode(&w); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out = append(out, w)
	}
	return out
}

func TestSeriesWindowDeltasAndGauges(t *testing.T) {
	reg, r := newArmedSeries(t)
	c := reg.Counter("load.retries")
	g := reg.Gauge("gateway.active_conns")

	c.Add(3)
	g.Set(7)
	r.Tick(10)

	// No movement: window still cut, counters empty, gauge carried.
	r.Tick(20)

	c.Add(2)
	g.Set(4)
	r.Tick(30)

	ws := r.Windows()
	if len(ws) != 3 {
		t.Fatalf("windows = %d, want 3", len(ws))
	}
	if ws[0].I != 0 || ws[0].T != 10 || ws[1].T != 20 || ws[2].T != 30 {
		t.Fatalf("window keys wrong: %+v", ws)
	}
	if len(ws[0].Counters) != 1 || ws[0].Counters[0].Value != 3 {
		t.Fatalf("window 0 counters = %+v, want load.retries=3", ws[0].Counters)
	}
	if len(ws[1].Counters) != 0 {
		t.Fatalf("quiet window has counter deltas: %+v", ws[1].Counters)
	}
	if len(ws[1].Gauges) != 1 || ws[1].Gauges[0].Value != 7 {
		t.Fatalf("window 1 gauges = %+v, want last-value 7", ws[1].Gauges)
	}
	if ws[2].Counters[0].Value != 2 || ws[2].Gauges[0].Value != 4 {
		t.Fatalf("window 2 = %+v, want delta 2 gauge 4", ws[2])
	}
}

func TestSeriesHistQuantiles(t *testing.T) {
	reg, r := newArmedSeries(t)
	h := reg.Histogram("load.record_rtt_ns", []int64{10, 100, 1000})

	for i := 0; i < 90; i++ {
		h.Observe(5) // bucket ≤10
	}
	for i := 0; i < 10; i++ {
		h.Observe(50) // bucket ≤100
	}
	r.Tick(1)

	// Second window sees only slow samples; cumulative quantiles would
	// still answer 10, the per-window merge must answer 1000.
	for i := 0; i < 5; i++ {
		h.Observe(500)
	}
	r.Tick(2)

	ws := r.Windows()
	h0 := ws[0].Histograms[0]
	if h0.Count != 100 || h0.P50 != 10 || h0.P95 != 100 || h0.P99 != 100 {
		t.Fatalf("window 0 hist = %+v, want count=100 p50=10 p95=100 p99=100", h0)
	}
	h1 := ws[1].Histograms[0]
	if h1.Count != 5 || h1.Sum != 2500 || h1.P50 != 1000 {
		t.Fatalf("window 1 hist = %+v, want count=5 sum=2500 p50=1000", h1)
	}
}

func TestSeriesWindowLookup(t *testing.T) {
	reg, r := newArmedSeries(t)
	c := reg.Counter("load.retries")
	ok := reg.Counter("load.clients_ok")
	g := reg.Gauge("gateway.active_conns")
	h := reg.Histogram("load.record_rtt_ns", []int64{10, 100})

	// Warm-up gate: no windows yet.
	if _, got := r.WindowLookup("load.retries", "", 1); got {
		t.Fatal("lookup answered before any window was cut")
	}

	c.Add(1)
	ok.Add(10)
	g.Set(3)
	h.Observe(5)
	r.Tick(1)

	// Warm-up gate: 1 window < n=2.
	if _, got := r.WindowLookup("load.retries", "", 2); got {
		t.Fatal("lookup answered with fewer windows than requested")
	}

	c.Add(4)
	ok.Add(10)
	h.Observe(50)
	h.Observe(50)
	r.Tick(2)

	if v, got := r.WindowLookup("load.retries", "", 2); !got || v != 5 {
		t.Fatalf("counter over 2 windows = %v,%v, want 5,true", v, got)
	}
	if v, got := r.WindowLookup("load.retries", "value", 1); !got || v != 4 {
		t.Fatalf("counter over last window = %v,%v, want 4,true", v, got)
	}
	if v, got := r.WindowLookup("gateway.active_conns", "", 2); !got || v != 3 {
		t.Fatalf("gauge lookup = %v,%v, want 3,true", v, got)
	}
	if v, got := r.WindowLookup("load.record_rtt_ns", "count", 2); !got || v != 3 {
		t.Fatalf("hist count = %v,%v, want 3,true", v, got)
	}
	if v, got := r.WindowLookup("load.record_rtt_ns", "mean", 2); !got || v != 35 {
		t.Fatalf("hist mean = %v,%v, want 35,true", v, got)
	}
	if _, got := r.WindowLookup("never.seen", "", 1); got {
		t.Fatal("unseen metric answered")
	}
	if _, got := r.WindowLookup("load.record_rtt_ns", "bogus", 1); got {
		t.Fatal("bogus aggregation answered")
	}
}

func TestSeriesOnWindowCallback(t *testing.T) {
	reg := NewRegistry()
	reg.SetEnabled(true)
	r := &SeriesRecorder{}
	var keys []int64
	r.Arm(reg, func(tt int64) {
		// The callback must be able to call WindowLookup (no deadlock).
		r.WindowLookup("x", "", 1)
		keys = append(keys, tt)
	})
	r.Tick(5)
	r.Tick(9)
	if !reflect.DeepEqual(keys, []int64{5, 9}) {
		t.Fatalf("callback keys = %v, want [5 9]", keys)
	}
}

func TestSeriesWriteReadRoundTrip(t *testing.T) {
	reg, r := newArmedSeries(t)
	reg.Counter("a").Add(2)
	reg.Gauge("g").Set(1.5)
	reg.Histogram("h", []int64{10, 100}).Observe(7)
	r.Tick(1)
	reg.Counter("a").Add(1)
	r.Tick(2)

	path := filepath.Join(t.TempDir(), "series.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSONL(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readSeries(t, path); !reflect.DeepEqual(got, r.Windows()) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, r.Windows())
	}
}

// TestSeriesDeterministicJSONL feeds two independent recorder/registry pairs
// the same update sequence and requires byte-identical serialization —
// the property the CI determinism job byte-diffs across worker counts.
func TestSeriesDeterministicJSONL(t *testing.T) {
	run := func() []byte {
		reg := NewRegistry()
		reg.SetEnabled(true)
		r := &SeriesRecorder{}
		r.Arm(reg, nil)
		// Registration order differs from name order on purpose.
		reg.Counter("z.late").Add(1)
		reg.Counter("a.early").Add(2)
		reg.Histogram("m.h", []int64{10}).Observe(3)
		r.Tick(100)
		reg.Counter("a.early").Add(1)
		r.Tick(200)
		var buf bytes.Buffer
		if err := r.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("serialization not deterministic:\n%s\nvs\n%s", a, b)
	}
}

func BenchmarkArmedSeriesTick(b *testing.B) {
	reg := NewRegistry()
	reg.SetEnabled(true)
	c := reg.Counter("bench.counter")
	reg.Histogram("bench.hist", DurationBuckets)
	r := &SeriesRecorder{}
	r.Arm(reg, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
		r.Tick(int64(i))
	}
}
