package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct {
		q    float64
		want float64
	}{
		{0.01, 1}, {0.10, 1}, {0.11, 2}, {0.50, 5}, {0.51, 6}, {0.90, 9}, {0.99, 10}, {1, 10},
	} {
		if got := percentile(append([]float64(nil), xs...), c.q); got != c.want {
			t.Errorf("p%v = %v, want %v", c.q*100, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty set: got %v, want 0", got)
	}
}

// A failed op enters as +Inf and ranks above every success, so it can
// only ever push a percentile up.
func TestPercentileFailuresSortLast(t *testing.T) {
	inf := math.Inf(1)
	xs := []float64{inf, 3, 1, inf, 2}
	if got := percentile(append([]float64(nil), xs...), 0.6); got != 3 {
		t.Errorf("p60 = %v, want 3", got)
	}
	if got := percentile(append([]float64(nil), xs...), 0.61); !math.IsInf(got, 1) {
		t.Errorf("p61 = %v, want +Inf: 2 of 5 ops failed", got)
	}
	ok := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	withFail := append(append([]float64(nil), ok[:9]...), inf)
	if a, b := percentile(ok, 0.9), percentile(withFail, 0.9); a != b {
		t.Errorf("p90 moved from %v to %v when the slowest op failed instead", a, b)
	}
	if got := percentile(withFail, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 = %v, want +Inf", got)
	}
}

// One window with a slow burst moves its own p99, not the median over
// windows; too few ops for two windows falls back to the whole set.
func TestWindowedPercentile(t *testing.T) {
	var xs []float64
	for w := 0; w < 5; w++ {
		for i := 1; i <= 100; i++ {
			v := float64(i)
			if w == 2 && i > 90 {
				v = 1000
			}
			xs = append(xs, v)
		}
	}
	xs = append(xs, 7) // a remainder, folded into the last window
	if got := windowedPercentile(append([]float64(nil), xs...), 0.99, 100); got != 99 {
		t.Errorf("windowed p99 = %v, want 99", got)
	}
	if got := percentile(append([]float64(nil), xs...), 0.99); got != 1000 {
		t.Errorf("whole-set p99 = %v, want 1000", got)
	}
	if got := windowedPercentile(append([]float64(nil), xs[:100]...), 0.5, 60); got != 50 {
		t.Errorf("short set: p50 = %v, want 50 over the whole set", got)
	}
	if got := windowedPercentile(append([]float64(nil), xs...), 0.99, 0); got != 1000 {
		t.Errorf("window 0: p99 = %v, want the whole-set 1000", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %s", d.Name, nameRE)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q does not match %s", d.Name, d.Unit, unitRE)
		}
		if seen[d.Name] {
			t.Errorf("metric %s listed twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q is malformed or reused", w.name)
		}
		seen[w.name] = true
	}
}

func TestRender(t *testing.T) {
	defs := []metricDef{{"a_ms", "ms"}, {"b", "count"}}
	line, table, err := render(defs, map[string]float64{"a_ms": math.Inf(1), "b": 1.25}, true, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(line), &res); err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
		t.Fatalf("result keys: %s", line)
	}
	var full result
	if err := json.Unmarshal([]byte(line), &full); err != nil {
		t.Fatal(err)
	}
	if full.Metrics["a_ms"].Value != infLatency || full.Metrics["b"].Value != 1.25 || full.Metrics["b"].Unit != "count" {
		t.Errorf("metrics: %+v", full.Metrics)
	}
	if !strings.Contains(table, "a_ms") {
		t.Errorf("table lacks a metric:\n%s", table)
	}
	if _, _, err := render(defs, map[string]float64{"a_ms": 1}, true, 1, 0); err == nil {
		t.Error("a missing metric was not reported")
	}
	if _, _, err := render(defs, map[string]float64{"a_ms": 1, "c": 2}, true, 1, 0); err == nil {
		t.Error("an unlisted metric was not reported")
	}
}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// The program reports exactly the metrics BENCHMARK.json declares, with
// the same units, and runs exactly the workloads it declares.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(bf.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].Name || m.Unit != endToEnd[i].Unit {
			t.Errorf("end-to-end %d: file %s/%s, program %s/%s", i, m.Name, m.Unit, endToEnd[i].Name, endToEnd[i].Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end %s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	for _, m := range bf.EndToEnd {
		if m.Name == "setup_s" && (m.Bound != maxBound || m.Better != "lower") {
			t.Errorf("setup_s must have the largest bound and better=lower: %+v", m)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].Name || m.Unit != perLayer[i].Unit {
			t.Errorf("per-layer %d: file %s/%s, program %s/%s", i, m.Name, m.Unit, perLayer[i].Name, perLayer[i].Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("per-layer %s: better %q", m.Name, m.Better)
		}
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: file %s, program %s", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
}

// specified lists every workload and metric the benchmark's design named,
// each with the name BENCHMARK.json carries it under. Most keep their
// names. README.md explains each replacement: every end-to-end metric is
// reported on every workload, so workload-specific ones were folded into
// metrics that mean the same thing on all four.
var specified = map[string][]string{
	"handshake-full": {"handshake-full"},
	"bulk-resumed":   {"bulk-resumed"},
	"session-lossy":  {"session-lossy"},
	"stack-lossy":    {"stack-lossy"},

	"setup_s":           {"setup_s"},
	"max_rss_mb":        {"max_rss_mb"},
	"failed_frac":       {"ok_frac"},
	"sessions_per_s":    {"ops_per_s"},
	"txn_per_s":         {"ops_per_s"},
	"handshake_p50_ms":  {"wtls.handshake_client_us.p50"},
	"handshake_p90_ms":  {"latency_p90_ms", "wtls.handshake_client_us.p90"},
	"goodput_MBps.rc4":  {"goodput_MBps", "bulk.goodput_MBps.rc4"},
	"goodput_MBps.3des": {"goodput_MBps", "bulk.goodput_MBps.3des"},
	"goodput_MBps.aes":  {"goodput_MBps", "bulk.goodput_MBps.aes"},
	"session_p90_ms":    {"latency_p90_ms"},
	"session_p99_ms":    {"latency_p99_ms"},

	"net.dial_us.p50": nil, "net.raw_echo_rtt_us.p50": nil,
	"gateway.accept_wait_us.p50": nil, "gateway.busy_us_per_session": nil,
	"gateway.read_wait_us_per_session": nil, "gateway.socket_writes_per_session": nil,
	"gateway.wire_bytes_per_session": nil, "gateway.handshakes": nil,
	"gateway.handshake_failures": nil, "gateway.sessions_done": nil,
	"wtls.handshake_client_us.p99": nil, "wtls.write_us.p50": nil,
	"wtls.echo_rtt_us.p50": nil, "wtls.echo_rtt_us.p99": nil, "wtls.resumed_frac": nil,
	"chaos.chunks": nil, "chaos.dropped": nil, "chaos.corrupted": nil, "chaos.stalled": nil,
	"load.retries": nil, "load.attempts_per_session": nil, "backoff.wait_ms_total": nil,
	"load.timeout_attempts": nil, "load.timeout_wait_ms_total": nil,
	"load.queue_wait_us.p50": nil, "load.queue_wait_us.p90": nil, "load.gen_late_us.p99": nil,
	"arq.retransmits": nil, "arq.data_sent": nil, "arq.goodput": nil, "arq.crc_errors": nil,
	"arq.out_of_order": nil, "chaos.frames_dropped": nil, "chaos.frames_corrupted": nil,
	"wep.seal_us_total": nil, "wep.open_us_total": nil, "esp.seal_us_total": nil,
	"esp.open_us_total": nil, "stack.txn_us.p50": nil, "stack.txn_us.p90": nil,
	"runtime.allocs_per_session": nil, "runtime.alloc_bytes_per_session": nil,
	"runtime.gc_cycles": nil, "process.cpu_us_per_session": nil,
}

// dropped lists design names reported under no name, with the reason.
var dropped = map[string]string{
	"session_p50_ms": "a median latency on the lightly loaded open loop spread 2.3-4.3 ms across ten seeds with host scheduling noise, past any bound; p90 and p99 stay",
}

func TestSpecifiedNamesPresent(t *testing.T) {
	bf := readBenchmarkFile(t)
	have := map[string]bool{}
	for _, w := range bf.Workloads {
		have[w.Name] = true
	}
	for _, m := range bf.EndToEnd {
		have[m.Name] = true
	}
	for _, m := range bf.PerLayer {
		have[m.Name] = true
	}
	for name, why := range dropped {
		if have[name] || why == "" {
			t.Errorf("%s: listed as dropped but present, or dropped without a reason", name)
		}
	}
	for name, as := range specified {
		if as == nil {
			as = []string{name}
		}
		for _, n := range as {
			if !have[n] {
				t.Errorf("%s: %s missing from BENCHMARK.json", name, n)
			}
		}
	}
}
