package wtls

import (
	"testing"

	"repro/internal/obs"
)

// armDTrace arms the process-wide distributed tracer for one test and
// restores the disarmed default afterwards.
func armDTrace(t *testing.T) {
	t.Helper()
	// Trace IDs are deterministic, so a repeated run (-count=N) would
	// otherwise find the previous run's spans in the shared ring.
	obs.DefaultDTracer.Reset()
	obs.DefaultDTracer.SetEnabled(true)
	obs.DefaultDTracer.SetProc("wtls-test")
	obs.DefaultDTracer.SetSampleN(1)
	t.Cleanup(func() { obs.DefaultDTracer.SetEnabled(false) })
}

// traceSpans filters the shared tracer's ring down to one trace.
func traceSpans(trace uint64) []obs.SpanRec {
	var out []obs.SpanRec
	for _, r := range obs.DefaultDTracer.Spans() {
		if r.Trace == trace {
			out = append(out, r)
		}
	}
	return out
}

// phaseChildren returns the recorded handshake span named want and the
// set of its phase-event names.
func phaseChildren(t *testing.T, spans []obs.SpanRec, want string) (obs.SpanRec, map[string]bool) {
	t.Helper()
	var hs obs.SpanRec
	found := false
	for _, r := range spans {
		if r.Name == want {
			hs = r
			found = true
		}
	}
	if !found {
		t.Fatalf("no %s span in %+v", want, spans)
	}
	phases := map[string]bool{}
	for _, r := range spans {
		if r.Parent == hs.Span {
			phases[r.Name] = true
		}
	}
	return hs, phases
}

// TestHandshakeTraceClient: the client attaches its parent before the
// handshake, so the buffered phases flush as hello/key_exchange/finished
// spans under a handshake_client child the moment Handshake returns.
func TestHandshakeTraceClient(t *testing.T) {
	armDTrace(t)
	trace := obs.TraceID(77, 1)
	root := obs.DefaultDTracer.Root(trace, "test", "session")
	if root == nil {
		t.Fatal("armed tracer returned nil root")
	}

	cp, sp := bufferedPipe()
	client := Client(cp, clientConfig(t))
	server := Server(sp, serverConfig(t))
	client.SetTraceParent(root)
	srvErr := make(chan error, 1)
	go func() { srvErr <- server.Handshake() }()
	if err := client.Handshake(); err != nil {
		t.Fatalf("client handshake: %v", err)
	}
	if err := <-srvErr; err != nil {
		t.Fatalf("server handshake: %v", err)
	}
	root.End()

	spans := traceSpans(trace)
	hs, phases := phaseChildren(t, spans, "handshake_client")
	if hs.Parent != root.ID() {
		t.Fatalf("handshake span parent %x, want root %x", hs.Parent, root.ID())
	}
	for _, p := range []string{"hello", "key_exchange", "finished"} {
		if !phases[p] {
			t.Fatalf("missing phase %q in %v", p, phases)
		}
	}
}

// TestHandshakeTraceServerLateAttach: the gateway only learns the trace
// context after the handshake (first application record), so attaching
// the parent post-handshake must replay the buffered phases.
func TestHandshakeTraceServerLateAttach(t *testing.T) {
	armDTrace(t)
	trace := obs.TraceID(77, 2)

	client, server, _ := handshakePair(t, clientConfig(t), serverConfig(t))
	_ = client
	if got := traceSpans(trace); len(got) != 0 {
		t.Fatalf("spans recorded before any parent attached: %+v", got)
	}

	root := obs.DefaultDTracer.RootAt(trace, 0x1234, "gateway", "session", 0)
	server.SetTraceParent(root)
	root.End()

	spans := traceSpans(trace)
	hs, phases := phaseChildren(t, spans, "handshake_server")
	if hs.Parent != root.ID() {
		t.Fatalf("handshake span parent %x, want root %x", hs.Parent, root.ID())
	}
	for _, p := range []string{"hello", "key_exchange", "finished"} {
		if !phases[p] {
			t.Fatalf("missing phase %q in %v", p, phases)
		}
	}
	// A second attach must not duplicate the handshake spans.
	before := len(traceSpans(trace))
	server.SetTraceParent(root)
	if got := len(traceSpans(trace)); got != before {
		t.Fatalf("re-attach duplicated spans: %d -> %d", before, got)
	}
}

// TestRecordBatchSpans: with a parent attached, each Write emits a
// record_batch event carrying the batch byte count.
func TestRecordBatchSpans(t *testing.T) {
	armDTrace(t)
	trace := obs.TraceID(77, 3)
	root := obs.DefaultDTracer.Root(trace, "test", "session")

	client, server, _ := handshakePair(t, clientConfig(t), serverConfig(t))
	client.SetTraceParent(root)

	msg := []byte("batched application bytes")
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, len(msg))
		_, err := server.Read(buf)
		done <- err
	}()
	if _, err := client.Write(msg); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("server read: %v", err)
	}
	root.End()

	var batch *obs.SpanRec
	for _, r := range traceSpans(trace) {
		if r.Name == "record_batch" && r.Proc == "wtls-test" {
			rr := r
			batch = &rr
		}
	}
	if batch == nil {
		t.Fatal("no record_batch span recorded")
	}
	if batch.N <= 0 {
		t.Fatalf("record_batch span lost byte count: %+v", batch)
	}
}

// TestHandshakeDisarmedRecordsNothing pins the zero-cost path: with the
// tracer disarmed, a full handshake leaves the span ring untouched.
func TestHandshakeDisarmedRecordsNothing(t *testing.T) {
	before := len(obs.DefaultDTracer.Spans())
	client, _, _ := handshakePair(t, clientConfig(t), serverConfig(t))
	client.SetTraceParent(nil)
	if got := len(obs.DefaultDTracer.Spans()); got != before {
		t.Fatalf("disarmed handshake recorded spans: %d -> %d", before, got)
	}
}
