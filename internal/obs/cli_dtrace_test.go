package obs

import (
	"flag"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func disarmDTracer(t *testing.T) {
	t.Helper()
	t.Cleanup(func() {
		DefaultDTracer.SetEnabled(false)
		DefaultDTracer.SetCanonical(false)
		DefaultDTracer.SetSampleN(1)
	})
}

func TestBindFlagsRegistersDTrace(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	BindFlags(fs)
	for _, name := range []string{"dtrace", "trace-sample", "dtrace-canon"} {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s not registered", name)
		}
	}
}

func TestActivateBadTraceSample(t *testing.T) {
	disarmDefaults(t)
	disarmDTracer(t)
	before := runtime.NumGoroutine()
	_, err := activate(t, "-dtrace", filepath.Join(t.TempDir(), "t.jsonl"), "-trace-sample", "0")
	if err == nil || !strings.Contains(err.Error(), "-trace-sample") {
		t.Fatalf("zero sample rate accepted: %v", err)
	}
	assertInert(t, before)
}

// TestActivateDTraceWritesSpans drives the flag path end to end: -dtrace
// arms the default tracer (canonical, sampled), spans recorded during
// the run land in the JSONL file on Close, and Close disarms nothing it
// did not arm.
func TestActivateDTraceWritesSpans(t *testing.T) {
	disarmDefaults(t)
	disarmDTracer(t)
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	c, err := activate(t, "-dtrace", path, "-dtrace-canon", "-trace-sample", "1")
	if err != nil {
		t.Fatal(err)
	}
	if !DefaultDTracer.Enabled() {
		t.Fatal("-dtrace did not arm the distributed tracer")
	}

	trace := TraceID(123, 1)
	root := DefaultDTracer.Root(trace, "load", "session")
	if root == nil {
		t.Fatal("armed tracer returned nil root")
	}
	root.Child("load", "attempt").End()
	root.End()

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	spans, skipped, err := ReadSpansFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 || len(spans) != 2 {
		t.Fatalf("exported %d spans (%d skipped), want 2 clean", len(spans), skipped)
	}
	for _, r := range spans {
		if r.Trace != trace {
			t.Fatalf("span on wrong trace: %+v", r)
		}
		if r.StartUS != 0 || r.DurUS != 0 {
			t.Fatalf("-dtrace-canon kept timings: %+v", r)
		}
	}
}
