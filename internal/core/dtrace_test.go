package core

import (
	"bytes"
	"testing"

	"repro/internal/obs"
	"repro/internal/par"
)

// dtraceRun arms the default span tracer in canonical mode, runs fn at
// the given worker count, and returns the span JSONL export. Not
// t.Parallel: it owns obs.DefaultDTracer for the duration.
func dtraceRun(t *testing.T, workers int, fn func() error) []byte {
	t.Helper()
	prev := par.DefaultWorkers()
	par.SetDefaultWorkers(workers)
	defer par.SetDefaultWorkers(prev)

	obs.DefaultDTracer.Reset()
	obs.DefaultDTracer.SetCanonical(true)
	obs.DefaultDTracer.SetEnabled(true)
	defer func() {
		obs.DefaultDTracer.SetEnabled(false)
		obs.DefaultDTracer.SetCanonical(false)
		obs.DefaultDTracer.Reset()
	}()

	if err := fn(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obs.DefaultDTracer.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSweepSpansDeterministic: the gap-surface and loss-figure sweeps
// export the same canonical spans at 1 and 8 workers, one root per
// sweep and one per simulated loss point.
func TestSweepSpansDeterministic(t *testing.T) {
	bers := []float64{0, 1e-4, 5e-4}
	sweeps := func() error {
		if _, err := ComputeGapSurface(DefaultLatencies(), DefaultRates(), 300); err != nil {
			return err
		}
		if _, err := ComputeLossFigure(0.01, bers); err != nil {
			return err
		}
		_, err := SimulateLossFigure(0.05, bers, 42, 2)
		return err
	}
	seq := dtraceRun(t, 1, sweeps)
	if got := dtraceRun(t, 8, sweeps); !bytes.Equal(seq, got) {
		t.Fatalf("span export differs between 1 and 8 workers:\n--- 1 worker\n%s\n--- 8 workers\n%s", seq, got)
	}

	spans, skipped, err := obs.ReadSpans(bytes.NewReader(seq))
	if err != nil || skipped != 0 {
		t.Fatalf("ReadSpans: %v (%d skipped)", err, skipped)
	}
	names := map[string]int{}
	for _, r := range spans {
		if r.Parent != 0 {
			t.Errorf("sweep span %s has a parent; every sweep span is a root", r.Name)
		}
		names[r.Name]++
	}
	want := map[string]int{
		"gap_surface": 1, "loss_figure_analytic": 1,
		"loss_figure_simulated": 1, "loss_point": len(bers),
	}
	for name, n := range want {
		if names[name] != n {
			t.Errorf("%d %s spans, want %d (all: %v)", names[name], name, n, names)
		}
	}
	if len(spans) != 3+len(bers) {
		t.Errorf("%d spans, want %d", len(spans), 3+len(bers))
	}
}
