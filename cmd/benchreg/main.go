// Command benchreg is the bench-regression harness: it runs the
// repository's Benchmark* suite under `go test -bench`, records ns/op,
// B/op and allocs/op per benchmark into a dated JSON snapshot, and —
// given a baseline snapshot — fails when any benchmark's ns/op regresses
// past a configurable threshold. CI runs it against the committed
// baseline; developers refresh the baseline with -out after intentional
// performance changes.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs/history"
	"repro/internal/obs/journal"
)

// Result is one benchmark's recorded costs. Extra holds custom
// b.ReportMetric units (e.g. the aggregate benchmark's records/s) keyed
// by their unit string.
type Result struct {
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	MBPerSec    float64            `json:"mb_per_sec,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"`
	Iterations  int64              `json:"iterations"`
}

// Snapshot is the JSON file layout. Commit and Fingerprint tie the
// numbers back to the code and configuration that produced them, so a
// snapshot (or the bench/history.jsonl entry derived from it) is
// traceable long after the working tree moves on.
type Snapshot struct {
	Date      string `json:"date"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	BenchTime string `json:"benchtime"`
	// NumCPU is the host's logical core count; rungs that run in
	// parallel (the aggregate benchmark) scale with it.
	NumCPU      int    `json:"num_cpu,omitempty"`
	Commit      string `json:"commit"`
	Fingerprint string `json:"config_fingerprint"`
	// SLOFired counts the slo_fired events in the run journal given via
	// -journal (0 when none was given), so a snapshot records not just
	// how fast the run was but whether it stayed inside its budgets.
	SLOFired int               `json:"slo_fired"`
	Results  map[string]Result `json:"results"`
}

func main() {
	benchRe := flag.String("bench", ".", "benchmark regexp passed to go test -bench")
	benchtime := flag.String("benchtime", "1s", "per-benchmark budget passed to go test -benchtime")
	pkg := flag.String("pkg", "./...", "package pattern to benchmark")
	out := flag.String("out", "", "write the snapshot JSON here (default bench/BENCH_<date>.json; '-' for stdout only)")
	baseline := flag.String("baseline", "", "baseline snapshot to compare against (empty: record only)")
	threshold := flag.Float64("threshold", 0.30, "fail when ns/op grows more than this fraction over baseline")
	count := flag.Int("count", 1, "go test -count, for noise averaging")
	historyPath := flag.String("history", "bench/history.jsonl", "append a run record to this JSONL history ('' to skip)")
	journalPath := flag.String("journal", "", "run journal JSONL whose fired-SLO count the snapshot records")
	flag.Parse()

	snap, raw, err := run(*benchRe, *benchtime, *pkg, *count)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreg: %v\n%s", err, raw)
		os.Exit(1)
	}
	if len(snap.Results) == 0 {
		fmt.Fprintf(os.Stderr, "benchreg: no benchmarks matched %q\n", *benchRe)
		os.Exit(1)
	}
	if *journalPath != "" {
		n, err := countSLOFired(*journalPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchreg: %v\n", err)
			os.Exit(1)
		}
		snap.SLOFired = n
	}

	path := *out
	if path == "" {
		path = fmt.Sprintf("bench/BENCH_%s.json", snap.Date)
	}
	if path != "-" {
		if dir := filepath.Dir(path); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "benchreg: %v\n", err)
				os.Exit(1)
			}
		}
		blob, _ := json.MarshalIndent(snap, "", "  ")
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchreg: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("recorded %d benchmarks -> %s\n", len(snap.Results), path)
	}
	if *historyPath != "" {
		if err := history.Append(*historyPath, historyRecord(snap)); err != nil {
			fmt.Fprintf(os.Stderr, "benchreg: history: %v\n", err)
			os.Exit(1)
		}
	}

	if *baseline == "" {
		printSnapshot(snap)
		return
	}
	base, err := load(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreg: baseline: %v\n", err)
		os.Exit(1)
	}
	if failed := compare(base, snap, *threshold); failed {
		os.Exit(1)
	}
}

// run executes the benchmark suite and parses its output.
func run(benchRe, benchtime, pkg string, count int) (*Snapshot, string, error) {
	args := []string{"test", "-run", "^$", "-bench", benchRe,
		"-benchtime", benchtime, "-benchmem", "-count", strconv.Itoa(count), pkg}
	cmd := exec.Command("go", args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	runErr := cmd.Run()
	snap := &Snapshot{
		Date:        time.Now().UTC().Format("2006-01-02"),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		BenchTime:   benchtime,
		NumCPU:      runtime.NumCPU(),
		Commit:      history.Commit(),
		Fingerprint: history.Fingerprint(benchRe, benchtime, pkg, strconv.Itoa(count), runtime.GOOS, runtime.GOARCH),
		Results:     map[string]Result{},
	}
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		if name, r, ok := parseLine(sc.Text()); ok {
			// -count > 1 repeats lines; keep the fastest (least noisy) run.
			if prev, dup := snap.Results[name]; !dup || r.NsPerOp < prev.NsPerOp {
				snap.Results[name] = r
			}
		}
	}
	if runErr != nil {
		return nil, buf.String(), fmt.Errorf("go test -bench: %w", runErr)
	}
	return snap, buf.String(), nil
}

// parseLine parses a `go test -bench` result line such as
//
//	BenchmarkFoo/bar-8   1000   1234 ns/op   9.0 MB/s   12 B/op   3 allocs/op
func parseLine(line string) (string, Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", Result{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i] // strip the -GOMAXPROCS suffix
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", Result{}, false
	}
	r := Result{Iterations: iters}
	seen := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp = v
			seen = true
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		case "MB/s":
			r.MBPerSec = v
		default:
			if r.Extra == nil {
				r.Extra = map[string]float64{}
			}
			r.Extra[fields[i+1]] = v
		}
	}
	return name, r, seen
}

// countSLOFired counts the slo_fired events in a run journal.
func countSLOFired(path string) (int, error) {
	events, _, err := journal.LoadFile(path)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, e := range events {
		if e.Layer == "slo" && e.Name == "slo_fired" {
			n++
		}
	}
	return n, nil
}

// historyRecord condenses a snapshot for the cross-run record book:
// per-benchmark ns/op as headline figures, keyed without the
// "Benchmark" prefix, plus the fired-SLO count.
func historyRecord(s *Snapshot) history.Record {
	head := make(map[string]float64, len(s.Results)+1)
	for name, r := range s.Results {
		head[strings.TrimPrefix(name, "Benchmark")+"_ns_per_op"] = r.NsPerOp
	}
	head["slo_fired"] = float64(s.SLOFired)
	return history.Record{
		Date:        s.Date,
		Source:      "benchreg",
		Commit:      s.Commit,
		GoVersion:   s.GoVersion,
		NumCPU:      s.NumCPU,
		Fingerprint: s.Fingerprint,
		Headline:    head,
	}
}

func load(path string) (*Snapshot, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(blob, &s); err != nil {
		return nil, err
	}
	return &s, nil
}

func printSnapshot(s *Snapshot) {
	names := make([]string, 0, len(s.Results))
	for n := range s.Results {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r := s.Results[n]
		fmt.Printf("  %-50s %14.1f ns/op %10.0f B/op %8.0f allocs/op\n",
			n, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
	}
}

// regression is one over-threshold (or missing) benchmark for the
// failure table. unit names the gated metric (ns/op, allocs/op, MB/s,
// records/s, ...).
type regression struct {
	name     string
	unit     string
	baseNs   float64
	curNs    float64
	delta    float64 // fraction over baseline; NaN-free, missing uses +Inf
	missing  bool
	baseDate string
}

// compare reports each benchmark's delta against the baseline and returns
// true when any ns/op regression exceeds the threshold. On failure it
// prints a dedicated regression table (worst first) so CI logs name the
// offenders without scrolling the full comparison.
func compare(base, cur *Snapshot, threshold float64) bool {
	names := make([]string, 0, len(base.Results))
	for n := range base.Results {
		names = append(names, n)
	}
	sort.Strings(names)
	var regs []regression
	fmt.Printf("comparison vs baseline (%s, fail over +%.0f%%):\n", base.Date, threshold*100)
	for _, n := range names {
		b := base.Results[n]
		c, ok := cur.Results[n]
		if !ok {
			fmt.Printf("  %-50s MISSING from current run\n", n)
			regs = append(regs, regression{name: n, baseNs: b.NsPerOp, missing: true, baseDate: base.Date})
			continue
		}
		if b.NsPerOp <= 0 {
			continue
		}
		delta := (c.NsPerOp - b.NsPerOp) / b.NsPerOp
		verdict := "ok"
		if delta > threshold {
			verdict = "REGRESSION"
			regs = append(regs, regression{name: n, unit: "ns/op", baseNs: b.NsPerOp, curNs: c.NsPerOp, delta: delta, baseDate: base.Date})
		}
		fmt.Printf("  %-50s %14.1f -> %14.1f ns/op  %+6.1f%%  %s\n",
			n, b.NsPerOp, c.NsPerOp, delta*100, verdict)
		// allocs/op gates at zero tolerance: a benchmark that allocated
		// more than its baseline — in particular the record path's pinned
		// 0 allocs/op — fails regardless of how small the increase is.
		if c.AllocsPerOp > b.AllocsPerOp {
			fmt.Printf("  %-50s %14.0f -> %14.0f allocs/op  REGRESSION (zero tolerance)\n",
				n, b.AllocsPerOp, c.AllocsPerOp)
			regs = append(regs, regression{name: n, unit: "allocs/op", baseNs: b.AllocsPerOp,
				curNs: c.AllocsPerOp, delta: c.AllocsPerOp - b.AllocsPerOp, baseDate: base.Date})
		}
		// Throughput metrics (MB/s and custom rates such as records/s)
		// gate as drops at the same threshold.
		if b.MBPerSec > 0 && c.MBPerSec < b.MBPerSec*(1-threshold) {
			drop := (b.MBPerSec - c.MBPerSec) / b.MBPerSec
			fmt.Printf("  %-50s %14.2f -> %14.2f MB/s  %+6.1f%%  REGRESSION\n",
				n, b.MBPerSec, c.MBPerSec, -drop*100)
			regs = append(regs, regression{name: n, unit: "MB/s", baseNs: b.MBPerSec,
				curNs: c.MBPerSec, delta: drop, baseDate: base.Date})
		}
		for unit, bv := range b.Extra {
			if !strings.HasSuffix(unit, "/s") || bv <= 0 {
				continue
			}
			cv := c.Extra[unit]
			if cv < bv*(1-threshold) {
				drop := (bv - cv) / bv
				fmt.Printf("  %-50s %14.1f -> %14.1f %s  %+6.1f%%  REGRESSION\n",
					n, bv, cv, unit, -drop*100)
				regs = append(regs, regression{name: n, unit: unit, baseNs: bv,
					curNs: cv, delta: drop, baseDate: base.Date})
			}
		}
	}
	extra := 0
	for n := range cur.Results {
		if _, ok := base.Results[n]; !ok {
			extra++
		}
	}
	if extra > 0 {
		fmt.Printf("  (%d benchmarks not in baseline; record a new baseline to track them)\n", extra)
	}
	// The SLO budget is part of the regression contract: a run that fires
	// more rules than its baseline regressed even if every ns/op held.
	if cur.SLOFired > base.SLOFired {
		fmt.Printf("  %-50s %14d -> %14d fired  REGRESSION\n", "SLO rules", base.SLOFired, cur.SLOFired)
		regs = append(regs, regression{name: "SLO rules fired", unit: "fired", baseNs: float64(base.SLOFired),
			curNs: float64(cur.SLOFired), delta: float64(cur.SLOFired - base.SLOFired), baseDate: base.Date})
	} else if base.SLOFired > 0 || cur.SLOFired > 0 {
		fmt.Printf("  %-50s %14d -> %14d fired  ok\n", "SLO rules", base.SLOFired, cur.SLOFired)
	}
	if len(regs) == 0 {
		fmt.Println("benchreg: PASS")
		return false
	}
	printRegressionTable(regs, threshold)
	return true
}

// printRegressionTable summarizes only the failing benchmarks, sorted by
// how far past the threshold each one landed.
func printRegressionTable(regs []regression, threshold float64) {
	sort.Slice(regs, func(i, j int) bool {
		// Missing benchmarks sort first — they are the hardest failures.
		if regs[i].missing != regs[j].missing {
			return regs[i].missing
		}
		return regs[i].delta > regs[j].delta
	})
	fmt.Printf("\nbenchreg: FAIL — %d metric(s) regressed past their gate (baseline %s, ns/op gate +%.0f%%):\n",
		len(regs), regs[0].baseDate, threshold*100)
	fmt.Printf("  %-50s %12s %14s %14s %9s\n", "benchmark", "metric", "baseline", "current", "delta")
	for _, r := range regs {
		if r.missing {
			fmt.Printf("  %-50s %12s %14.1f %14s %9s\n", r.name, "ns/op", r.baseNs, "MISSING", "-")
			continue
		}
		fmt.Printf("  %-50s %12s %14.1f %14.1f %+8.1f%%\n", r.name, r.unit, r.baseNs, r.curNs, r.delta*100)
	}
	fmt.Println("  refresh with: go run ./cmd/benchreg -out bench/BENCH_baseline.json (after justifying the slowdown)")
}
