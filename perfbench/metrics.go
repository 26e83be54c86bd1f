package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name, Unit string
}

// endToEnd lists, in print order, the metrics an untraced run reports.
// Every workload reports every one of them; an "op" is a session on the
// loopback workloads and a transaction on stack-lossy (see README.md).
// There is no median latency: on the lightly loaded open loop it tracks
// host scheduling noise more than the system (README.md, Sizing notes).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"max_rss_mb", "MB"},
	{"ok_frac", "frac"},
	{"ops_per_s", "1/s"},
	{"goodput_MBps", "MB/s"},
	{"latency_p90_ms", "ms"},
	{"latency_p99_ms", "ms"},
}

// perLayer lists, in print order, the metrics a traced run reports. A
// layer the workload does not exercise reports 0.
var perLayer = []metricDef{
	{"net.dial_us.p50", "us"},
	{"net.raw_echo_rtt_us.p50", "us"},

	{"gateway.accept_wait_us.p50", "us"},
	{"gateway.busy_us_per_session", "us"},
	{"gateway.read_wait_us_per_session", "us"},
	{"gateway.socket_writes_per_session", "count"},
	{"gateway.wire_bytes_per_session", "B"},
	{"gateway.handshakes", "count"},
	{"gateway.handshake_failures", "count"},
	{"gateway.sessions_done", "count"},

	{"wtls.handshake_client_us.p50", "us"},
	{"wtls.handshake_client_us.p90", "us"},
	{"wtls.handshake_client_us.p99", "us"},
	{"wtls.write_us.p50", "us"},
	{"wtls.echo_rtt_us.p50", "us"},
	{"wtls.echo_rtt_us.p99", "us"},
	{"wtls.resumed_frac", "frac"},
	{"bulk.goodput_MBps.rc4", "MB/s"},
	{"bulk.goodput_MBps.3des", "MB/s"},
	{"bulk.goodput_MBps.aes", "MB/s"},

	{"chaos.chunks", "count"},
	{"chaos.dropped", "count"},
	{"chaos.corrupted", "count"},
	{"chaos.stalled", "count"},

	{"load.retries", "count"},
	{"load.attempts_per_session", "count"},
	{"backoff.wait_ms_total", "ms"},
	{"load.timeout_attempts", "count"},
	{"load.timeout_wait_ms_total", "ms"},
	{"load.queue_wait_us.p50", "us"},
	{"load.queue_wait_us.p90", "us"},
	{"load.gen_late_us.p99", "us"},

	{"arq.retransmits", "count"},
	{"arq.data_sent", "count"},
	{"arq.goodput", "frac"},
	{"arq.crc_errors", "count"},
	{"arq.out_of_order", "count"},
	{"chaos.frames_dropped", "count"},
	{"chaos.frames_corrupted", "count"},
	{"wep.seal_us_total", "us"},
	{"wep.open_us_total", "us"},
	{"esp.seal_us_total", "us"},
	{"esp.open_us_total", "us"},
	{"stack.txn_us.p50", "us"},
	{"stack.txn_us.p90", "us"},

	{"runtime.allocs_per_session", "count"},
	{"runtime.alloc_bytes_per_session", "B"},
	{"runtime.gc_cycles", "count"},
	{"process.cpu_us_per_session", "us"},

	{"trace.untraced_ops_per_s", "1/s"},
	{"trace.traced_ops_per_s", "1/s"},
	{"trace.overhead_pct", "%"},
}

// infLatency stands in for an infinite percentile in the JSON result
// (JSON has no infinity): more than 1-q of the ops failed.
const infLatency = 1e9

// percentile returns the q-quantile (0 < q <= 1) of xs by nearest rank:
// the smallest sample with at least a fraction q of all samples at or
// below it. Failed operations enter xs as +Inf, so they rank above every
// success. xs is sorted in place; an empty set gives 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// windowedPercentile splits xs, in the order the ops finished, into
// consecutive windows of `window` ops (the last one takes the remainder),
// takes the q-quantile of each window and returns their median. A burst
// of host interference moves the tail of the few windows it falls in,
// not the median over all of them. A window <= 0, or fewer ops than two
// windows, gives the q-quantile of the whole set. xs is reordered.
func windowedPercentile(xs []float64, q float64, window int) float64 {
	if window <= 0 || len(xs) < 2*window {
		return percentile(xs, q)
	}
	k := len(xs) / window
	ps := make([]float64, k)
	for i := range ps {
		end := (i + 1) * window
		if i == k-1 {
			end = len(xs)
		}
		ps[i] = percentile(xs[i*window:end], q)
	}
	return median(ps)
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), sorting xs in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// render checks that vals holds exactly the metrics of defs and returns
// the JSON result line plus a name/value/unit table for people.
func render(defs []metricDef, vals map[string]float64, correct bool, attempted, failed int) (string, string, error) {
	if len(vals) != len(defs) {
		return "", "", fmt.Errorf("internal: %d metric values for %d metrics", len(vals), len(defs))
	}
	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	var table strings.Builder
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return "", "", fmt.Errorf("internal: metric %s not measured", d.Name)
		}
		if math.IsInf(v, 1) {
			v = infLatency
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", "", fmt.Errorf("internal: metric %s is %v", d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(&table, "  %-36s %14.6g %s\n", d.Name, v, d.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return "", "", err
	}
	return string(line), table.String(), nil
}
