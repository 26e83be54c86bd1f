package obs

import (
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

func TestServeEndpoints(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	r.Counter("hits").Add(3)

	addr, shutdown, err := serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	get := func(path string) []byte {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	var snap Snapshot
	if err := json.Unmarshal(get("/metrics"), &snap); err != nil {
		t.Fatalf("/metrics not JSON: %v", err)
	}
	if len(snap.Counters) != 1 || snap.Counters[0].Value != 3 {
		t.Fatalf("/metrics content wrong: %+v", snap)
	}
	get("/debug/vars")
	get("/debug/pprof/cmdline")
	// /metrics is the one metrics wire shape, and there is no live
	// event stream.
	for _, path := range []string{"/metrics.prom", "/events"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestCLIWritesFiles(t *testing.T) {
	dir := t.TempDir()
	mpath := filepath.Join(dir, "metrics.json")
	tpath := filepath.Join(dir, "spans.jsonl")

	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := BindFlags(fs)
	if err := fs.Parse([]string{"-metrics", mpath, "-dtrace", tpath}); err != nil {
		t.Fatal(err)
	}
	if err := c.Activate(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		Default.SetEnabled(false)
		DefaultDTracer.SetEnabled(false)
		DefaultDTracer.Reset()
	}()
	if !Enabled() || !DTraceEnabled() {
		t.Fatal("Activate did not arm the default registry/span tracer")
	}
	C("cli.test").Inc()
	DefaultDTracer.Root(TraceID(2, 2), "cli", "test").End()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatalf("metrics file not written: %v", err)
	}
	var snap Snapshot
	if err := json.Unmarshal(blob, &snap); err != nil {
		t.Fatalf("metrics file not JSON: %v", err)
	}
	if snap.DTrace == nil || snap.DTrace.Recorded == 0 {
		t.Fatalf("metrics snapshot lacks span ring stats: %+v", snap.DTrace)
	}
	if spans, _, err := ReadSpansFile(tpath); err != nil || len(spans) != 1 {
		t.Fatalf("span file: %d spans, err %v; want 1", len(spans), err)
	}
	// Close again must be harmless.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}
