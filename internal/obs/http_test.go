package obs

import (
	"bufio"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/obs/journal"
)

func TestServeEndpoints(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	r.Counter("hits").Add(3)

	addr, shutdown, err := ServeConfig("127.0.0.1:0", ServerConfig{Registry: r})
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
}

// readSSEFrame reads one "event:"/"data:" frame from an SSE stream.
func readSSEFrame(t *testing.T, br *bufio.Reader) (name, data string) {
	t.Helper()
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("SSE read: %v", err)
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case line == "":
			if name != "" || data != "" {
				return name, data
			}
		case strings.HasPrefix(line, "event: "):
			name = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			data = line[len("data: "):]
		}
	}
}

func TestServeEventsStream(t *testing.T) {
	j := journal.New(64)
	j.SetMinLevel(journal.LevelDebug)
	j.SetEnabled(true)
	addr, shutdown, err := ServeConfig("127.0.0.1:0", ServerConfig{
		Journal:         j,
		MetricsInterval: time.Hour, // keep metric ticks out of the stream
	})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	resp, err := http.Get("http://" + addr + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("/events Content-Type = %q", ct)
	}
	br := bufio.NewReader(resp.Body)
	name, data := readSSEFrame(t, br)
	if name != "hello" || !strings.Contains(data, "metric_interval_ms") {
		t.Fatalf("first frame = %q %q, want hello frame", name, data)
	}

	j.Emit(7, journal.LevelWarn, "wep", "icv_failure", journal.I("frame_bytes", 42))
	name, data = readSSEFrame(t, br)
	if name != "journal" {
		t.Fatalf("second frame = %q %q, want journal", name, data)
	}
	e, err := journal.ParseLine([]byte(data))
	if err != nil {
		t.Fatalf("journal frame not parseable: %v\n%s", err, data)
	}
	if e.TSim != 7 || e.Layer != "wep" || e.Name != "icv_failure" || e.Get("frame_bytes") != "42" {
		t.Fatalf("journal frame content wrong: %s", data)
	}

	SetProgressSource(func() Progress { return Progress{Active: true, Done: 3, Total: 9} })
	presp, err := http.Get("http://" + addr + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(presp.Body)
	presp.Body.Close()
	if !strings.Contains(string(body), `"done":3`) {
		t.Fatalf("/progress = %s", body)
	}
}

// TestServeEventsMetricsWindow drives /events through one counter
// increment: the metrics frame decodes as a SeriesWindow equal to
// seriesDiff over the snapshots before and after it, and ticks where
// nothing moved send no frame.
func TestServeEventsMetricsWindow(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	hits := r.Counter("hits")
	r.Gauge("active").Set(2)
	j := journal.New(16)
	j.SetEnabled(true)
	addr, shutdown, err := ServeConfig("127.0.0.1:0", ServerConfig{
		Registry:        r,
		Journal:         j,
		MetricsInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	before := r.Snapshot()
	resp, err := http.Get("http://" + addr + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	if name, _ := readSSEFrame(t, br); name != "hello" {
		t.Fatalf("first frame = %q, want hello", name)
	}

	hits.Inc()
	after := r.Snapshot()
	name, data := readSSEFrame(t, br)
	if name != "metrics" {
		t.Fatalf("frame after the increment = %q %q, want metrics", name, data)
	}
	var got SeriesWindow
	if err := json.Unmarshal([]byte(data), &got); err != nil {
		t.Fatalf("metrics frame is not a SeriesWindow: %v\n%s", err, data)
	}
	want := seriesDiff(&before, &after)
	want.I, want.T = got.I, got.T
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("metrics frame = %+v, want %+v", got, want)
	}

	// Idle ticks send nothing: the next frame is the journal event
	// emitted several intervals later.
	time.Sleep(50 * time.Millisecond)
	j.Emit(1, journal.LevelInfo, "test", "after_idle")
	if name, data := readSSEFrame(t, br); name != "journal" {
		t.Fatalf("frame after idle ticks = %q %q, want journal", name, data)
	}
}

// TestServeShutdownUnblocksStreams is the regression test for the
// shutdown hang: an open /events stream must not keep Shutdown (and its
// handler goroutine) alive past the 2s drain window.
func TestServeShutdownUnblocksStreams(t *testing.T) {
	before := runtime.NumGoroutine()
	j := journal.New(16)
	j.SetEnabled(true)
	addr, shutdown, err := ServeConfig("127.0.0.1:0", ServerConfig{
		Journal:         j,
		MetricsInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/events")
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(resp.Body)
	readSSEFrame(t, br) // hello: the stream is live

	start := time.Now()
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown with open SSE stream: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("shutdown took %v; the done channel should unblock streams instantly", d)
	}
	resp.Body.Close()

	// The handler, Serve loop and subscriber goroutines must all exit.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked after shutdown: before=%d after=%d", before, runtime.NumGoroutine())
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
