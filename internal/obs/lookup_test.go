package obs

import "testing"

// TestSnapshotLookupSelectors pins the aggregator-selector contract the
// SLO engine evaluates rules through: counters and gauges answer only
// the default "value" aggregation, histograms answer count/sum/mean,
// and everything else is a miss (rules skip, never fire).
func TestSnapshotLookupSelectors(t *testing.T) {
	reg := NewRegistry()
	reg.SetEnabled(true)
	reg.Counter("c").Add(5)
	reg.Gauge("g").Set(2.5)
	h := reg.Histogram("h", []int64{10, 100})
	h.Observe(4)
	h.Observe(40)
	empty := reg.Histogram("h.empty", []int64{10})
	_ = empty
	snap := reg.Snapshot()

	cases := []struct {
		metric, agg string
		want        float64
		ok          bool
	}{
		{"c", "", 5, true},
		{"c", "value", 5, true},
		{"g", "", 2.5, true},
		{"g", "value", 2.5, true},
		{"h", "count", 2, true},
		{"h", "sum", 44, true},
		{"h", "mean", 22, true},
		{"h.empty", "count", 0, true},
		{"h.empty", "mean", 0, false}, // mean of nothing: skip, not 0
		{"c", "count", 0, false},      // counter doesn't answer histogram aggs
		{"h", "", 0, false},           // histogram doesn't answer "value"
		{"absent", "", 0, false},
		{"h", "p95", 0, false}, // unknown agg is a miss
	}
	for _, c := range cases {
		got, ok := snap.Lookup(c.metric, c.agg)
		if got != c.want || ok != c.ok {
			t.Errorf("Lookup(%q, %q) = %v,%v; want %v,%v", c.metric, c.agg, got, ok, c.want, c.ok)
		}
	}
}

func TestBucketQuantile(t *testing.T) {
	bounds := []int64{10, 100, 1000}
	cases := []struct {
		counts []int64
		q      float64
		want   int64
	}{
		{[]int64{90, 10, 0, 0}, 0.50, 10},
		{[]int64{90, 10, 0, 0}, 0.95, 100},
		{[]int64{90, 10, 0, 0}, 0.99, 100},
		{[]int64{0, 0, 0, 5}, 0.50, 1000}, // overflow clamps to last bound
		{[]int64{1, 0, 0, 0}, 1.00, 10},
		{[]int64{0, 0, 0, 0}, 0.50, 0}, // empty histogram
		{[]int64{5, 0, 0, 0}, 0.0, 0},  // q out of range
		{[]int64{5, 0, 0, 0}, 1.5, 0},
	}
	for _, c := range cases {
		if got := BucketQuantile(bounds, c.counts, c.q); got != c.want {
			t.Errorf("BucketQuantile(%v, %v) = %d, want %d", c.counts, c.q, got, c.want)
		}
	}
}

// TestSnapshotQuantiles checks the derived p50/p95/p99 exported on
// HistogramValue (the msreport table columns).
func TestSnapshotQuantiles(t *testing.T) {
	reg := NewRegistry()
	reg.SetEnabled(true)
	h := reg.Histogram("h", []int64{10, 100, 1000})
	for i := 0; i < 94; i++ {
		h.Observe(5)
	}
	for i := 0; i < 5; i++ {
		h.Observe(50)
	}
	h.Observe(500)
	snap := reg.Snapshot()
	hv := snap.Histograms[0]
	if hv.P50 != 10 || hv.P95 != 100 || hv.P99 != 100 {
		t.Fatalf("quantiles = p50=%d p95=%d p99=%d, want 10/100/100", hv.P50, hv.P95, hv.P99)
	}
}
