package loadgen

import (
	"context"
	"testing"

	"repro/internal/obs"
)

// hasGatewaySpan reports whether n's subtree contains a gateway-layer
// session span.
func hasGatewaySpan(n *obs.SpanNode) bool {
	if n.Rec.Layer == "gateway" && n.Rec.Name == "session" {
		return true
	}
	for _, c := range n.Children {
		if hasGatewaySpan(c) {
			return true
		}
	}
	return false
}

// TestEndToEndMergedTraces is the tentpole acceptance in miniature: a
// traced load run against a live gateway produces, for every session,
// one trace holding both the msload and msgateway halves — the server's
// session span rooted under the client's attempt span — with the
// critical-path analyzer attributing the bulk of each session's wall
// time to named spans.
//
// The tracer is process-wide and the trace IDs are seeded, so the test
// starts from an empty ring and puts back everything it set: a second
// run (-count 2) would otherwise merge its spans into the first run's
// traces.
func TestEndToEndMergedTraces(t *testing.T) {
	obs.DefaultDTracer.Reset()
	obs.DefaultDTracer.SetEnabled(true)
	obs.DefaultDTracer.SetProc("e2e-test")
	obs.DefaultDTracer.SetSampleN(1)
	t.Cleanup(func() {
		obs.DefaultDTracer.SetEnabled(false)
		obs.DefaultDTracer.SetProc("")
		obs.DefaultDTracer.SetSampleN(0)
		obs.DefaultDTracer.Reset()
	})

	srv, client := startGateway(t)
	r, err := New(Config{
		Addr: srv.Addr().String(), WTLS: client,
		Conns: 6, Concurrency: 2, Records: 2, Payload: 64,
		Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := r.Run()
	if rep.OK != 6 || rep.Failed != 0 {
		t.Fatalf("run: %s (lastErr=%v)", rep, r.LastErr())
	}
	// Drain the gateway so every server-side session span has flushed.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	trees := obs.BuildTraces(obs.DefaultDTracer.Spans())
	if len(trees) != 6 {
		t.Fatalf("want 6 traces, got %d", len(trees))
	}
	for _, tr := range trees {
		if len(tr.Roots) != 1 {
			t.Fatalf("trace %s has %d roots (server half orphaned?)", obs.TraceHex(tr.Trace), len(tr.Roots))
		}
		if tr.Roots[0].Rec.Parent != 0 || tr.Roots[0].Rec.Name != "session" {
			t.Fatalf("trace %s primary root is %+v", obs.TraceHex(tr.Trace), tr.Roots[0].Rec)
		}
		// The gateway half must hang inside the client's tree. (Both
		// halves share one proc name here — a single test process — so
		// the Merged flag can't fire; the structural merge is the point.)
		foundServer := false
		for _, n := range tr.Roots[0].Children {
			foundServer = foundServer || hasGatewaySpan(n)
		}
		if !foundServer {
			t.Fatalf("trace %s has no gateway session under the client root", obs.TraceHex(tr.Trace))
		}
		// The acceptance bar: ≥95% of the session's duration lands in
		// named child spans.
		if tr.Coverage < 0.95 {
			t.Errorf("trace %s coverage %.3f < 0.95", obs.TraceHex(tr.Trace), tr.Coverage)
		}
	}

	// Both halves' handshake phases must appear in the attribution.
	keys := map[string]bool{}
	for _, e := range obs.CritTop(trees, 0) {
		keys[e.Key] = true
	}
	for _, want := range []string{
		"e2e-test/load.session",
		"e2e-test/load.attempt",
		"e2e-test/wtls.handshake_client",
		"e2e-test/wtls.handshake_server",
		"e2e-test/gateway.session",
	} {
		if !keys[want] {
			t.Errorf("critical path missing %q (have %v)", want, keys)
		}
	}
}

// TestTraceStructureDeterministicAcrossConcurrency pins the CI
// byte-diff property at unit scale: the client's exported canonical
// trace is identical whether the run used 1 worker or 8.
func TestTraceStructureDeterministicAcrossConcurrency(t *testing.T) {
	run := func(concurrency int) []obs.SpanRec {
		obs.DefaultDTracer.Reset()
		obs.DefaultDTracer.SetEnabled(true)
		obs.DefaultDTracer.SetProc("msload")
		obs.DefaultDTracer.SetCanonical(true)
		t.Cleanup(func() {
			obs.DefaultDTracer.SetEnabled(false)
			obs.DefaultDTracer.SetCanonical(false)
			obs.DefaultDTracer.Reset()
		})

		srv, client := startGateway(t)
		r, err := New(Config{
			Addr: srv.Addr().String(), WTLS: client,
			Conns: 8, Concurrency: concurrency, Records: 2, Payload: 64,
			Seed: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep := r.Run(); rep.Failed != 0 {
			t.Fatalf("run failed: %s (lastErr=%v)", rep, r.LastErr())
		}
		// Drain so the server half finishes flushing its spans before
		// the snapshot — otherwise the last session races.
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		obs.DefaultDTracer.SetEnabled(false)
		// Keep only the client half. In production msload and msgateway
		// are separate processes and CI diffs only msload's file; here
		// one tracer records both, so drop every span whose ancestor
		// chain crosses into the gateway subtree (the server's timing
		// depends on read coalescing and is legitimately nondeterministic).
		all := obs.DefaultDTracer.Spans()
		byID := make(map[uint64]obs.SpanRec, len(all))
		for _, rec := range all {
			byID[rec.Span] = rec
		}
		serverSide := func(rec obs.SpanRec) bool {
			for {
				if rec.Layer == "gateway" {
					return true
				}
				p, ok := byID[rec.Parent]
				if !ok {
					return false
				}
				rec = p
			}
		}
		var out []obs.SpanRec
		for _, rec := range all {
			if !serverSide(rec) {
				out = append(out, rec)
			}
		}
		return out
	}

	a := run(1)
	b := run(8)
	if len(a) == 0 {
		t.Fatal("no client spans recorded")
	}
	if len(a) != len(b) {
		t.Fatalf("span counts differ: %d at c=1, %d at c=8", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("span %d differs:\n c=1: %+v\n c=8: %+v", i, a[i], b[i])
		}
	}
}
