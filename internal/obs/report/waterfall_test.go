package report

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/obs"
)

// spanFixture is a merged two-process trace: a client session with a
// handshake child and the server's half hanging under the handshake.
func spanFixture(timed bool) []obs.SpanRec {
	trace := obs.TraceID(1, 1)
	root := obs.DeriveSpanID(trace, "load", "session", 0)
	hs := obs.DeriveSpanID(root, "wtls", "handshake_client", 0)
	srv := obs.DeriveSpanID(hs, "gateway", "session", 0)
	spans := []obs.SpanRec{
		{Trace: trace, Span: root, Parent: 0, Proc: "msload", Layer: "load", Name: "session", StartUS: 0, DurUS: 100},
		{Trace: trace, Span: hs, Parent: root, Proc: "msload", Layer: "wtls", Name: "handshake_client", StartUS: 10, DurUS: 40},
		{Trace: trace, Span: srv, Parent: hs, Proc: "msgateway", Layer: "gateway", Name: "session", StartUS: 500, DurUS: 20},
	}
	if !timed {
		for i := range spans {
			spans[i].StartUS, spans[i].DurUS = 0, 0
		}
	}
	return spans
}

func TestHTMLSpanWaterfall(t *testing.T) {
	var buf bytes.Buffer
	if err := HTML(&buf, Data{Spans: spanFixture(true)}); err != nil {
		t.Fatal(err)
	}
	doc := buf.String()
	for _, want := range []string{
		"Distributed traces",
		"1 merged across processes",
		"Critical path — self-time by span kind",
		"msload/load.session",
		"msgateway/gateway.session",
		"Trace <code>" + obs.TraceHex(obs.TraceID(1, 1)) + "</code>",
		"msgateway+msload",     // sorted distinct procs
		"<svg class=\"flame\"", // timed trace draws bars
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("waterfall missing %q", want)
		}
	}
}

// TestHTMLSpanWaterfallCanonical: timings stripped by -dtrace-canon must
// still render — as a structure table, not an SVG with zero-width bars —
// and stay byte-identical across renders so CI can diff the panel.
func TestHTMLSpanWaterfallCanonical(t *testing.T) {
	var a, b bytes.Buffer
	if err := HTML(&a, Data{Spans: spanFixture(false)}); err != nil {
		t.Fatal(err)
	}
	if err := HTML(&b, Data{Spans: spanFixture(false)}); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("canonical waterfall not byte-deterministic")
	}
	doc := a.String()
	if !strings.Contains(doc, "No timings (canonical trace)") {
		t.Error("canonical note missing")
	}
	if !strings.Contains(doc, "wtls.handshake_client") {
		t.Error("structure table missing spans")
	}
}

func TestHTMLSpanSkippedWarning(t *testing.T) {
	var buf bytes.Buffer
	if err := HTML(&buf, Data{Spans: spanFixture(true), SpansSkipped: 3}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "3 malformed line(s) skipped") {
		t.Error("skipped-line warning missing")
	}
}

func TestHTMLNoSpansOmitsSection(t *testing.T) {
	var buf bytes.Buffer
	if err := HTML(&buf, Data{}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "Distributed traces") {
		t.Error("span section rendered without spans")
	}
}

// TestHTMLWaterfallCap: only the longest traces get waterfalls, with a
// note pointing at the aggregate table for the rest.
func TestHTMLWaterfallCap(t *testing.T) {
	var spans []obs.SpanRec
	for s := int64(0); s < int64(maxWaterfalls)+4; s++ {
		trace := obs.TraceID(2, s)
		spans = append(spans, obs.SpanRec{
			Trace: trace, Span: obs.DeriveSpanID(trace, "load", "session", 0),
			Proc: "msload", Layer: "load", Name: "session", StartUS: 0, DurUS: 10 + s,
		})
	}
	var buf bytes.Buffer
	if err := HTML(&buf, Data{Spans: spans}); err != nil {
		t.Fatal(err)
	}
	doc := buf.String()
	if got := strings.Count(doc, "<h3>Trace <code>"); got != maxWaterfalls {
		t.Fatalf("%d waterfalls rendered, want %d", got, maxWaterfalls)
	}
	if !strings.Contains(doc, "Waterfalls capped") {
		t.Error("cap note missing")
	}
}

// TestHTMLExemplarColumn: histograms with exemplars grow a column
// linking the slowest bucket to a trace ID.
