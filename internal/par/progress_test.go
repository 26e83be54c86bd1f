package par

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/obs"
)

func TestProgressJSON(t *testing.T) {
	if err := ForN(context.Background(), 3, 10, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	var p struct {
		Active    bool    `json:"active"`
		Sweep     int64   `json:"sweep"`
		Total     int64   `json:"total"`
		Done      int64   `json:"done"`
		Workers   int     `json:"workers"`
		PerWorker []int64 `json:"per_worker"`
		ElapsedMS int64   `json:"elapsed_ms"`
		ETAMS     int64   `json:"eta_ms"`
	}
	blob, err := json.Marshal(Progress())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &p); err != nil {
		t.Fatalf("ProgressJSON not valid JSON: %v\n%s", err, blob)
	}
	if p.Active {
		t.Fatal("finished sweep still reported active")
	}
	if p.Total != 10 || p.Done != 10 {
		t.Fatalf("done/total = %d/%d, want 10/10", p.Done, p.Total)
	}
	if p.Workers != 3 || len(p.PerWorker) != 3 {
		t.Fatalf("workers = %d, per_worker = %v", p.Workers, p.PerWorker)
	}
	var sum int64
	for _, n := range p.PerWorker {
		sum += n
	}
	if sum != 10 {
		t.Fatalf("per-worker counts sum to %d, want 10", sum)
	}
	if p.ETAMS != 0 {
		t.Fatalf("eta_ms = %d for a finished sweep, want 0", p.ETAMS)
	}
}

func TestProgressSourceRegistered(t *testing.T) {
	// The init hook must have wired this package into obs so the CLI can
	// expose /progress without importing par.
	fn := obs.ProgressSource()
	if fn == nil {
		t.Fatal("par did not register a progress source with obs")
	}
	if blob, err := json.Marshal(fn()); err != nil || blob[0] != '{' {
		t.Fatalf("unexpected progress payload %q (%v)", blob, err)
	}
}
