package arq_test

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/arq"
	"repro/internal/chaos"
	"repro/internal/obs"
)

// TestTraceEventsOnLossyLink: with a trace parent attached, the ARQ
// endpoint attributes its radio-layer waste — retransmissions and
// ACK-timeout waits — as events under the session's span, so the
// critical-path analyzer can weigh radio time against crypto time.
func TestTraceEventsOnLossyLink(t *testing.T) {
	// The trace ID is deterministic: drop spans a previous run
	// (-count=N) left in the shared ring.
	obs.DefaultDTracer.Reset()
	obs.DefaultDTracer.SetEnabled(true)
	obs.DefaultDTracer.SetProc("arq-test")
	obs.DefaultDTracer.SetSampleN(1)
	t.Cleanup(func() { obs.DefaultDTracer.SetEnabled(false) })

	lossy := func(seed int64) chaos.Config {
		return chaos.Config{Seed: seed, Drop: 0.2}
	}
	cfg := arq.Config{RetransmitTimeout: 5 * time.Millisecond, MaxRetries: 40}
	ea, eb := duplexLink(t, lossy(11), lossy(12), cfg)

	trace := obs.TraceID(55, 1)
	root := obs.DefaultDTracer.Root(trace, "test", "session")
	if root == nil {
		t.Fatal("armed tracer returned nil root")
	}
	ea.SetTraceParent(root)

	msg := bytes.Repeat([]byte("radio waste "), 512)
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, len(msg))
		if _, err := io.ReadFull(eb, buf); err != nil {
			done <- err
			return
		}
		if !bytes.Equal(buf, msg) {
			done <- errors.New("payload mismatch")
			return
		}
		done <- nil
	}()
	if _, err := ea.Write(msg); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	root.End()

	var retransmits, waits int
	var retransmitBytes int64
	for _, r := range obs.DefaultDTracer.Spans() {
		if r.Trace != trace || r.Parent != root.ID() {
			continue
		}
		switch {
		case r.Layer == "arq" && r.Name == "retransmit":
			retransmits++
			retransmitBytes += r.N
		case r.Layer == "arq" && r.Name == "backoff_wait":
			waits++
		}
	}
	if retransmits == 0 {
		t.Fatal("20% loss recorded no retransmit spans")
	}
	if retransmitBytes <= 0 {
		t.Fatal("retransmit spans carry no byte counts")
	}
	if waits == 0 {
		t.Fatal("ACK timeouts recorded no backoff_wait spans")
	}
	if st := ea.Stats(); int64(retransmits) != int64(st.Retransmits) {
		t.Fatalf("span count %d disagrees with stats %d", retransmits, st.Retransmits)
	}
}

// TestTraceDisarmedEndpointRecordsNothing pins the free path: without a
// parent (or with the tracer disarmed) a lossy transfer records no spans.
func TestTraceDisarmedEndpointRecordsNothing(t *testing.T) {
	before := len(obs.DefaultDTracer.Spans())
	cfg := arq.Config{RetransmitTimeout: 5 * time.Millisecond, MaxRetries: 40}
	ea, eb := duplexLink(t, chaos.Config{Seed: 3, Drop: 0.1}, chaos.Config{Seed: 4}, cfg)
	msg := bytes.Repeat([]byte("quiet "), 256)
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, len(msg))
		_, err := io.ReadFull(eb, buf)
		done <- err
	}()
	if _, err := ea.Write(msg); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := len(obs.DefaultDTracer.Spans()); got != before {
		t.Fatalf("disarmed transfer recorded spans: %d -> %d", before, got)
	}
}
