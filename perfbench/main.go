// Command perfbench is the repository's end-to-end benchmark. In one
// process it either starts internal/gateway on 127.0.0.1 and drives it
// with its own WTLS client, or builds the paper's Figure 5 handset stack
// (ARQ, WEP and ESP over a lossy frame channel) and runs WTLS over it.
// It checks every echoed byte, prints each metric by name and unit, and
// ends with one JSON result line. README.md describes the workloads.
//
// Usage:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 reports the end-to-end metrics of an untraced run. --trace 1
// measures half the time untraced and half traced, and reports the
// per-layer metrics plus the tracing overhead; spans go to --trace-dir.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/crypto/prng"
)

var posInf = math.Inf(1)

// setups is how many times a run sets its workload up; setup_s is the
// median, which a single slow set-up on a shared host does not move.
const setups = 15

// gcPercent is the GC target every run uses. At Go's default of 100 the
// workloads' small live heap made the collector run every few dozen
// milliseconds and take about a third of the CPU on a 2-core x86-64 host;
// how its cycles fell against host scheduling moved handshake-full's
// whole-run p99 by a quartile spread of 19-37 % of the median across ten
// seeds. At 400 five seeds spread p99 by about 3 %, at about 110 MB
// peak RSS. runtime.allocs_per_session and runtime.gc_cycles still count
// what the program allocates.
const gcPercent = 400

// env is one set-up instance of a workload, ready to measure.
type env interface {
	// measure runs the workload for about d; tr is nil when untraced.
	measure(d time.Duration, tr *tracer) *phase
	close() error
}

// phase is what one measured stretch of a workload saw.
type phase struct {
	wall      time.Duration
	lat       []float64 // ms per op, in the order ops finished; a failed op is +Inf
	window    int       // ops per latency window; 0 takes percentiles over the whole phase
	goodBytes int64     // verified payload bytes of successful ops
	layer     map[string]float64
	fp        map[string]float64 // seed-determined counts
	errs      []string           // correctness failures
}

func (p *phase) failed() int {
	n := 0
	for _, v := range p.lat {
		if math.IsInf(v, 1) {
			n++
		}
	}
	return n
}

func (p *phase) opsPerS() float64 {
	return float64(len(p.lat)-p.failed()) / p.wall.Seconds()
}

// workload is one named traffic shape.
type workload struct {
	name      string
	loop      string
	suite     string
	transport string
	// setup builds the workload; n numbers the set-up within the run.
	setup func(seed int64, pool []byte, traced bool, n int) (env, error)
}

var workloads = []workload{
	{"handshake-full", "closed, 2 clients", "RSA_WITH_3DES_EDE_CBC_SHA (0x000A)",
		"loopback TCP", setupHandshakeFull},
	{"bulk-resumed", "closed, 2 clients, fixed sessions per suite leg",
		"RSA_WITH_RC4_128_SHA (0x0005), RSA_WITH_3DES_EDE_CBC_SHA (0x000A), RSA_WITH_AES_128_CBC_SHA (0x002F)",
		"loopback TCP", setupBulkResumed},
	{"session-lossy", fmt.Sprintf("open, %d sessions/s, at most %d in flight", lossyRate, lossySlots),
		"RSA_WITH_3DES_EDE_CBC_SHA (0x000A)", "loopback TCP under chaos.Conn", setupSessionLossy},
	{"stack-lossy", "closed, 1 transaction in flight", "RSA_WITH_3DES_EDE_CBC_SHA (0x000A)",
		"in-memory stack.Pipe under chaos.FaultyTransport", setupStackLossy},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Int("seconds", 10, "measured seconds")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	traceDir := fs.String("trace-dir", ".bench_build/trace", "directory traced runs write their spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	switch {
	case w == nil:
		fmt.Fprintf(stderr, "perfbench: unknown --workload %q (want %s)\n", *name, workloadNames())
		return 2
	case *seconds < 1:
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1")
		return 2
	case *traceMode != 0 && *traceMode != 1:
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if err := bench(w, *seed, time.Duration(*seconds)*time.Second, *traceMode == 1, *traceDir, stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		var ce *correctnessError
		if errors.As(err, &ce) {
			return 1
		}
		return 3
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// correctnessError reports outputs that differ from what was expected;
// the result line has already been printed with correct=false.
type correctnessError struct{ errs []string }

func (e *correctnessError) Error() string {
	return "correctness check failed: " + strings.Join(e.errs, "; ")
}

// bench sets up, measures and reports one run.
func bench(w *workload, seed int64, d time.Duration, traced bool, traceDir string, stdout io.Writer) error {
	debug.SetGCPercent(gcPercent)
	pool := prng.NewDRBG([]byte(fmt.Sprintf("perfbench/inputs/%d", seed))).Bytes(256 << 10)
	sum := sha256.Sum256(pool)
	printJSONLine(stdout, "meta", runMeta(w, seed, d, traced))

	var e env
	var times []float64
	for i := 0; i < setups; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return fmt.Errorf("tear down set-up %d: %w", i, err)
			}
		}
		// Start every set-up from the same collected heap, so that one
		// does not pay for the garbage of the one before it.
		runtime.GC()
		t0 := time.Now()
		next, err := w.setup(seed, pool, traced, i)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		e = next
	}
	fmt.Fprintf(stdout, "set-up times (s): %.6f\n", times)
	setupS := median(times)

	var probe map[string]float64
	if traced {
		var err error
		if probe, err = probeNet(64); err != nil {
			e.close()
			return err
		}
	}

	var untraced, traced1 *phase
	var layers map[string]float64
	var tr *tracer
	if !traced {
		untraced = e.measure(d, nil)
	} else {
		untraced = e.measure(d/2, nil)
		tr = newTracer()
		// getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
		var rs0, rs1 syscall.Rusage
		var ms0, ms1 runtime.MemStats
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &rs0)
		runtime.ReadMemStats(&ms0)
		traced1 = e.measure(d-d/2, tr)
		runtime.ReadMemStats(&ms1)
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &rs1)
		layers = perLayerValues(untraced, traced1, tr, probe, cpuUS(rs1)-cpuUS(rs0), &ms0, &ms1)
	}
	errs := append([]string(nil), untraced.errs...)
	if err := e.close(); err != nil {
		errs = append(errs, "tear down: "+err.Error())
	}
	attempted, failed := len(untraced.lat), untraced.failed()
	if traced1 != nil {
		path, err := tr.write(traceDir, fmt.Sprintf("%s-seed%d", w.name, seed))
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace written to %s (%d spans)\n", path, len(tr.spans))
		errs = append(errs, traced1.errs...)
		attempted += len(traced1.lat)
		failed += traced1.failed()
	}

	fp := map[string]any{"workload": w.name, "seed": seed, "inputs_sha256": hex.EncodeToString(sum[:8])}
	for k, v := range untraced.fp {
		fp[k] = v
	}
	printJSONLine(stdout, "fingerprint", fp)

	rss := maxRSSMB()
	e2e := endToEndValues(untraced, setupS, rss)
	_, table, rerr := render(endToEnd, e2e, true, 1, 0)
	if rerr != nil {
		return rerr
	}
	fmt.Fprintf(stdout, "end-to-end, untraced (%d ops, %.2f s):\n%s", len(untraced.lat), untraced.wall.Seconds(), table)
	if untraced.window > 0 {
		whole := append([]float64(nil), untraced.lat...)
		fmt.Fprintf(stdout, "  latency p90/p99 over the whole phase: %.6g / %.6g ms (the metrics above are medians over windows of %d ops)\n",
			percentile(whole, 0.90), percentile(whole, 0.99), untraced.window)
	}
	for _, k := range sortedKeys(untraced.layer, "bulk.goodput_MBps.") {
		fmt.Fprintf(stdout, "  %-36s %14.6g MB/s\n", k, untraced.layer[k])
	}

	defs, vals := endToEnd, e2e
	if traced1 != nil {
		_, ttable, terr := render(endToEnd, endToEndValues(traced1, setupS, rss), true, 1, 0)
		if terr != nil {
			return terr
		}
		fmt.Fprintf(stdout, "end-to-end, traced (%d ops, %.2f s; overhead %.1f%% of untraced ops/s):\n%s",
			len(traced1.lat), traced1.wall.Seconds(), layers["trace.overhead_pct"], ttable)
		defs, vals = perLayer, layers
	}
	correct := len(errs) == 0
	line, table, rerr := render(defs, vals, correct, attempted, failed)
	if rerr != nil {
		return rerr
	}
	if traced1 != nil {
		fmt.Fprintf(stdout, "per-layer, traced:\n%s", table)
	}
	fmt.Fprintln(stdout, line)
	if !correct {
		return &correctnessError{errs: errs}
	}
	return nil
}

// endToEndValues computes the end-to-end metrics of a phase.
func endToEndValues(ph *phase, setupS, rssMB float64) map[string]float64 {
	lat := append([]float64(nil), ph.lat...)
	n := len(lat)
	ok := n - ph.failed()
	wall := ph.wall.Seconds()
	return map[string]float64{
		"setup_s":        setupS,
		"max_rss_mb":     rssMB,
		"ok_frac":        float64(ok) / float64(max(n, 1)),
		"ops_per_s":      float64(ok) / wall,
		"goodput_MBps":   float64(ph.goodBytes) / 1e6 / wall,
		"latency_p90_ms": windowedPercentile(lat, 0.90, ph.window),
		"latency_p99_ms": windowedPercentile(append([]float64(nil), ph.lat...), 0.99, ph.window),
	}
}

// perLayerValues assembles the per-layer metrics of a traced run: span
// percentiles, the workload's own counts, runtime and process costs per
// op, and the traced-versus-untraced throughput.
func perLayerValues(untraced, ph *phase, tr *tracer, probe map[string]float64, cpu float64, ms0, ms1 *runtime.MemStats) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	for k, v := range probe {
		m[k] = v
	}
	for _, s := range []struct {
		layer, name, metric string
		q                   float64
	}{
		{"wtls", "handshake", "wtls.handshake_client_us.p50", 0.50},
		{"wtls", "handshake", "wtls.handshake_client_us.p90", 0.90},
		{"wtls", "handshake", "wtls.handshake_client_us.p99", 0.99},
		{"wtls", "write", "wtls.write_us.p50", 0.50},
		{"wtls", "echo", "wtls.echo_rtt_us.p50", 0.50},
		{"wtls", "echo", "wtls.echo_rtt_us.p99", 0.99},
		{"stack", "txn", "stack.txn_us.p50", 0.50},
		{"stack", "txn", "stack.txn_us.p90", 0.90},
	} {
		if xs := tr.durationsUS(s.layer, s.name); len(xs) > 0 {
			m[s.metric] = percentile(xs, s.q)
		}
	}
	// A name outside perLayer makes render fail, so a typo cannot hide.
	for k, v := range ph.layer {
		m[k] = v
	}
	ops := float64(max(len(ph.lat), 1))
	m["runtime.allocs_per_session"] = float64(ms1.Mallocs-ms0.Mallocs) / ops
	m["runtime.alloc_bytes_per_session"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / ops
	m["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	m["process.cpu_us_per_session"] = cpu / ops
	m["trace.untraced_ops_per_s"] = untraced.opsPerS()
	m["trace.traced_ops_per_s"] = ph.opsPerS()
	if u := untraced.opsPerS(); u > 0 {
		m["trace.overhead_pct"] = (1 - ph.opsPerS()/u) * 100
	}
	return m
}

// probeNet measures the loopback floor under every workload: n plain
// TCP dials and 256 B echo round trips against an in-process echo
// listener, with no WTLS or gateway involved.
func probeNet(n int) (map[string]float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("probe listen: %w", err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, _ = io.Copy(c, c)
				c.Close()
			}()
		}
	}()
	defer func() {
		ln.Close()
		wg.Wait()
	}()
	msg := make([]byte, 256)
	got := make([]byte, 256)
	var dials, rtts []float64
	for i := 0; i < n; i++ {
		msg[0] = byte(i)
		t0 := time.Now()
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return nil, fmt.Errorf("probe dial: %w", err)
		}
		dials = append(dials, float64(time.Since(t0))/1e3)
		_ = c.SetDeadline(time.Now().Add(5 * time.Second))
		t1 := time.Now()
		_, err = c.Write(msg)
		if err == nil {
			_, err = io.ReadFull(c, got)
		}
		rtts = append(rtts, float64(time.Since(t1))/1e3)
		c.Close()
		if err != nil {
			return nil, fmt.Errorf("probe echo: %w", err)
		}
		if string(got) != string(msg) {
			return nil, &correctnessError{errs: []string{"plain TCP probe echoed different bytes"}}
		}
	}
	return map[string]float64{
		"net.dial_us.p50":         percentile(dials, 0.5),
		"net.raw_echo_rtt_us.p50": percentile(rtts, 0.5),
	}, nil
}

// runMeta describes where and how a run happened.
func runMeta(w *workload, seed int64, d time.Duration, traced bool) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.modified" && s.Value == "true" {
				commit += "+modified"
			}
		}
	}
	return map[string]any{
		"workload":   w.name,
		"seed":       seed,
		"seconds":    d.Seconds(),
		"traced":     traced,
		"loop":       w.loop,
		"suite":      w.suite,
		"transport":  w.transport,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"gogc":       gcPercent,
		"go":         runtime.Version(),
		"commit":     commit,
	}
}

func printJSONLine(w io.Writer, tag string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(fmt.Sprintf("%q", err.Error()))
	}
	fmt.Fprintf(w, "%s %s\n", tag, b)
}

func sortedKeys(m map[string]float64, prefix string) []string {
	var ks []string
	for k := range m {
		if strings.HasPrefix(k, prefix) {
			ks = append(ks, k)
		}
	}
	sort.Strings(ks)
	return ks
}

func cpuUS(r syscall.Rusage) float64 {
	return float64(r.Utime.Sec+r.Stime.Sec)*1e6 + float64(r.Utime.Usec+r.Stime.Usec)
}

// maxRSSMB is the process's peak resident set size (Linux reports KiB).
func maxRSSMB() float64 {
	var r syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &r); err != nil {
		return 0
	}
	return float64(r.Maxrss) / 1024
}

// mix64 hashes two words into one (splitmix64 finalizer), to spread
// per-session offsets over the input pool.
func mix64(a, b uint64) uint64 {
	x := a*0x9E3779B97F4A7C15 + b + 1
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
