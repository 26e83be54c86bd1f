package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestDeriveSpanIDDeterministic(t *testing.T) {
	a := DeriveSpanID(42, "load", "session", 0)
	b := DeriveSpanID(42, "load", "session", 0)
	if a != b {
		t.Fatalf("same inputs, different IDs: %x vs %x", a, b)
	}
	if a == 0 {
		t.Fatal("derived ID must be nonzero")
	}
	if DeriveSpanID(42, "load", "session", 1) == a {
		t.Fatal("ordinal must change the ID")
	}
	if DeriveSpanID(42, "load", "attempt", 0) == a {
		t.Fatal("name must change the ID")
	}
	if DeriveSpanID(43, "load", "session", 0) == a {
		t.Fatal("parent must change the ID")
	}
	// The layer/name separator must keep ("ab","c") and ("a","bc") apart.
	if DeriveSpanID(1, "ab", "c", 0) == DeriveSpanID(1, "a", "bc", 0) {
		t.Fatal("layer/name boundary ambiguous")
	}
}

func TestTraceIDNonzeroAndStable(t *testing.T) {
	if TraceID(7, 3) != TraceID(7, 3) {
		t.Fatal("TraceID not deterministic")
	}
	if TraceID(7, 3) == TraceID(7, 4) {
		t.Fatal("TraceID ignores session")
	}
	if TraceIDFromBytes([]byte{0, 0, 0, 0, 0, 0, 0, 0}) == 0 {
		t.Fatal("TraceIDFromBytes returned reserved zero")
	}
	if TraceIDFromBytes([]byte{1, 2, 3}) != TraceIDFromBytes([]byte{1, 2, 3}) {
		t.Fatal("TraceIDFromBytes not deterministic")
	}
}

func TestDTracerDisarmedIsNil(t *testing.T) {
	tr := NewDTracer(64)
	if sp := tr.Root(TraceID(1, 1), "load", "session"); sp != nil {
		t.Fatal("disarmed tracer must hand out nil spans")
	}
	// Every method on the nil span must be a safe no-op.
	var sp *DSpan
	sp.End()
	sp.EndAt(5)
	sp.SetN(1)
	sp.Event("l", "n", 0, 1, 0)
	if c := sp.Child("l", "n"); c != nil {
		t.Fatal("nil span's child must be nil")
	}
	if sp.TraceID() != 0 || sp.ID() != 0 {
		t.Fatal("nil span IDs must be zero")
	}
}

func TestDTracerHierarchyAndSortedExport(t *testing.T) {
	tr := NewDTracer(64)
	tr.SetEnabled(true)
	tr.SetProc("test")
	trace := TraceID(9, 1)
	root := tr.Root(trace, "load", "session")
	if root == nil {
		t.Fatal("armed tracer returned nil root")
	}
	a := root.Child("load", "attempt")
	a.Event("load", "dial", 1, 2, 0)
	a.End()
	b := root.Child("load", "attempt")
	b.End()
	root.End()

	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("want 4 spans, got %d", len(spans))
	}
	// Two attempts must have distinct IDs via their ordinals, and both
	// must point at the root.
	if a.ID() == b.ID() {
		t.Fatal("sibling spans share an ID")
	}
	kids := 0
	for _, r := range spans {
		if r.Proc != "test" {
			t.Fatalf("span missing proc stamp: %+v", r)
		}
		if r.Trace != trace {
			t.Fatalf("span on wrong trace: %+v", r)
		}
		if r.Parent == root.ID() {
			kids++
		}
	}
	if kids != 2 {
		t.Fatalf("want 2 children of root, got %d", kids)
	}
	// Export order is (trace, span, parent, ord), not record order.
	for i := 1; i < len(spans); i++ {
		p, q := spans[i-1], spans[i]
		if p.Trace > q.Trace || (p.Trace == q.Trace && p.Span > q.Span) {
			t.Fatalf("export not sorted at %d: %x then %x", i, p.Span, q.Span)
		}
	}
}

func TestDTracerSampling(t *testing.T) {
	tr := NewDTracer(64)
	tr.SetEnabled(true)
	tr.SetSampleN(4)
	kept := 0
	for s := int64(0); s < 64; s++ {
		if tr.Keep(TraceID(1, s)) {
			kept++
		}
	}
	if kept == 0 || kept == 64 {
		t.Fatalf("1/4 sampling kept %d of 64", kept)
	}
	// The decision is a pure function of the trace ID: a second tracer
	// with the same rate agrees on every trace.
	tr2 := NewDTracer(64)
	tr2.SetEnabled(true)
	tr2.SetSampleN(4)
	for s := int64(0); s < 64; s++ {
		id := TraceID(1, s)
		if tr.Keep(id) != tr2.Keep(id) {
			t.Fatalf("samplers disagree on trace %x", id)
		}
	}
	// Unsampled traces yield nil roots; sampled ones record.
	for s := int64(0); s < 64; s++ {
		id := TraceID(1, s)
		sp := tr.Root(id, "l", "n")
		if (sp != nil) != tr.Keep(id) {
			t.Fatalf("Root/Keep disagree on trace %x", id)
		}
		sp.End()
	}
	if got := len(tr.Spans()); got != kept {
		t.Fatalf("recorded %d spans, want %d", got, kept)
	}
}

func TestDTracerCanonicalZeroesTimes(t *testing.T) {
	tr := NewDTracer(64)
	tr.SetEnabled(true)
	tr.SetCanonical(true)
	if tr.NowUS() != 0 {
		t.Fatal("canonical clock must read 0")
	}
	sp := tr.RootAt(TraceID(2, 2), 0, "l", "n", 123)
	sp.Event("l", "leaf", 7, 9, 3)
	sp.EndAt(999)
	for _, r := range tr.Spans() {
		if r.StartUS != 0 || r.DurUS != 0 {
			t.Fatalf("canonical span kept timings: %+v", r)
		}
		if r.Name == "leaf" && r.N != 3 {
			t.Fatalf("canonical span lost N: %+v", r)
		}
	}
}

func TestDTraceJSONLRoundTrip(t *testing.T) {
	tr := NewDTracer(64)
	tr.SetEnabled(true)
	tr.SetProc("p1")
	root := tr.RootAt(TraceID(3, 3), 0x1234, "load", "session", 10)
	root.Child("wtls", "handshake_client").EndAt(20)
	root.SetN(42)
	root.EndAt(30)

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, skipped, err := ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Fatalf("skipped %d lines of our own output", skipped)
	}
	if !reflect.DeepEqual(got, tr.Spans()) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, tr.Spans())
	}
}

func TestReadSpansSkipsGarbage(t *testing.T) {
	in := strings.Join([]string{
		`{"trace":"00000000000000ff","span":"0000000000000001","ord":0,"layer":"l","name":"n","start_us":0,"dur_us":1}`,
		`not json`,
		`{"trace":"zzzz","span":"0000000000000002","ord":0,"layer":"l","name":"n","start_us":0,"dur_us":1}`,
		``,
	}, "\n")
	got, skipped, err := ReadSpans(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || skipped != 2 {
		t.Fatalf("got %d spans, %d skipped; want 1 and 2", len(got), skipped)
	}
}

func TestDTracerRingDropCounting(t *testing.T) {
	Default.SetEnabled(true) // the drop counter is registry-gated
	defer Default.SetEnabled(false)
	tr := NewDTracer(16) // minimum capacity
	tr.SetEnabled(true)
	before := mTraceDropped.Value()
	root := tr.Root(TraceID(4, 4), "l", "root")
	for i := 0; i < 40; i++ {
		root.Event("l", "e", int64(i), 1, 0)
	}
	root.End()
	st := tr.Stats()
	if st.Recorded != 41 {
		t.Fatalf("recorded %d, want 41", st.Recorded)
	}
	if st.Dropped != 41-16 {
		t.Fatalf("dropped %d, want %d", st.Dropped, 41-16)
	}
	if got := mTraceDropped.Value() - before; got != int64(st.Dropped) {
		t.Fatalf("obs.trace_dropped advanced by %d, want %d", got, st.Dropped)
	}
	if st.Capacity != 16 {
		t.Fatalf("capacity %d, want 16", st.Capacity)
	}
	// The ring keeps the most recent 16 records: events 25..39 and the
	// root, which ended last.
	spans := tr.Spans()
	if len(spans) != 16 {
		t.Fatalf("ring holds %d spans, want 16", len(spans))
	}
	kept := map[int64]bool{}
	for _, r := range spans {
		if r.Name == "root" {
			kept[-1] = true
		} else {
			kept[r.StartUS] = true
		}
	}
	for i := int64(25); i < 40; i++ {
		if !kept[i] {
			t.Fatalf("event %d missing after wraparound; kept %v", i, kept)
		}
	}
	if !kept[-1] {
		t.Fatal("root span missing after wraparound")
	}
	var nilTr *DTracer
	if st := nilTr.Stats(); st != (TraceStats{}) {
		t.Fatalf("nil tracer Stats = %+v", st)
	}
}

// TestDTracerConcurrent records root+child pairs from many goroutines
// (run under -race in CI) and checks no span is lost or double-counted.
func TestDTracerConcurrent(t *testing.T) {
	tr := NewDTracer(2048)
	tr.SetEnabled(true)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				root := tr.Root(TraceID(int64(g), int64(j)), "l", "s")
				root.Child("l", "c").End()
				root.End()
			}
		}(g)
	}
	wg.Wait()
	if st := tr.Stats(); st.Recorded != 1600 || st.Dropped != 0 {
		t.Fatalf("Stats = %+v, want 1600 recorded, 0 dropped", st)
	}
	if n := len(tr.Spans()); n != 1600 {
		t.Fatalf("spans = %d, want 1600", n)
	}
}

// TestTraceCountersInSnapshot pins satellite behavior: the span/drop
// counters surface through the JSON snapshot (the /metrics body and the
// -metrics file) like any other registry counter.
func TestTraceCountersInSnapshot(t *testing.T) {
	Default.SetEnabled(true)
	defer Default.SetEnabled(false)
	mTraceSpans.Inc()
	mTraceDropped.Inc()
	snap := Default.Snapshot()
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got Snapshot
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v", err)
	}
	for _, want := range []string{"obs.trace_spans", "obs.trace_dropped"} {
		found := false
		for _, c := range got.Counters {
			found = found || (c.Name == want && c.Value > 0)
		}
		if !found {
			t.Fatalf("snapshot JSON lacks counter %s:\n%s", want, buf.String())
		}
	}
}

func TestHistogramExemplars(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	h := r.Histogram("t.lat", []int64{10, 100})
	h.Observe(5) // no exemplar
	snap := r.Snapshot()
	if snap.Histograms[0].Exemplars != nil {
		t.Fatal("exemplars present without any ObserveEx")
	}
	h.ObserveEx(50, 0xabcd) // second bucket
	h.ObserveEx(7, 0)       // zero trace: counted, no exemplar
	snap = r.Snapshot()
	ex := snap.Histograms[0].Exemplars
	if ex == nil {
		t.Fatal("exemplars missing after ObserveEx")
	}
	if ex[0] != "" || ex[1] != TraceHex(0xabcd) || ex[2] != "" {
		t.Fatalf("unexpected exemplars %q", ex)
	}
	if snap.Histograms[0].Count != 3 {
		t.Fatalf("count %d, want 3", snap.Histograms[0].Count)
	}
}
