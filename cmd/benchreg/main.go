// Command benchreg is the bench-regression harness: it runs the
// repository's Benchmark* suite under `go test -bench` in one fixed
// configuration (-benchtime 1000x, -count 3, every package), records
// ns/op, B/op and allocs/op per benchmark into a JSON snapshot, and —
// given a baseline snapshot — fails when any benchmark regresses past
// the gate. CI runs it against the committed baseline; developers
// refresh the baseline with -out after intentional performance changes.
// Without -out it writes no file. Both run the default -bench, the
// gated rung list, and -out refuses to replace a snapshot with a run
// that lacks any of its benchmarks.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
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

// Snapshot is the JSON file layout. Commit ties the numbers back to the
// code that produced them, so a snapshot stays traceable long after the
// working tree moves on.
type Snapshot struct {
	Date      string `json:"date"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	BenchTime string `json:"benchtime"`
	// NumCPU is the host's logical core count; rungs that run in
	// parallel (the aggregate benchmark) scale with it.
	NumCPU  int               `json:"num_cpu,omitempty"`
	Commit  string            `json:"commit"`
	Results map[string]Result `json:"results"`
}

// rungs is the default -bench regexp: the benchmark ladder that CI gates
// against bench/BENCH_baseline.json, from the cipher kernels up to the
// composed stack and the fleet step.
const rungs = "BenchmarkCipherThroughput|BenchmarkDESBlock|Benchmark3DESBlock|BenchmarkNewTripleCipher|" +
	"BenchmarkRecordProtection|BenchmarkBearerA5Throughput|BenchmarkAggregateThroughput|BenchmarkFleetStep|" +
	"BenchmarkModExp512|BenchmarkModExpConstTime512|BenchmarkSignCRT512|BenchmarkWTLSHandshake|" +
	"BenchmarkDRBGRead|BenchmarkHMACSHA1|BenchmarkESPSealOpen|BenchmarkWEPSealOpen|BenchmarkStackTxn|BenchmarkARQ"

// The one configuration the committed baseline was recorded in: a fixed
// iteration count gives every run the same b.N, so per-op figures that
// amortise set-up (allocs/op above all) match the baseline's, and the
// fastest of three repeats damps scheduler noise.
const (
	benchtime = "1000x"
	count     = 3
	pkg       = "./..."
	// threshold is the ns/op gate and the MB/s and rate drop gate, as
	// a fraction of the baseline.
	threshold = 0.30
)

func main() {
	benchRe := flag.String("bench", rungs, "benchmark regexp passed to go test -bench; the default is the gated rung list")
	out := flag.String("out", "", "write the snapshot JSON here (empty: write no file)")
	baseline := flag.String("baseline", "", "baseline snapshot to compare against (empty: print the run)")
	flag.Parse()

	snap, raw, err := run(*benchRe)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreg: %v\n%s", err, raw)
		os.Exit(1)
	}
	if len(snap.Results) == 0 {
		fmt.Fprintf(os.Stderr, "benchreg: no benchmarks matched %q\n", *benchRe)
		os.Exit(1)
	}

	if *out != "" {
		if err := checkOverwrite(*out, snap); err != nil {
			fmt.Fprintf(os.Stderr, "benchreg: %v\n", err)
			os.Exit(1)
		}
		if dir := filepath.Dir(*out); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "benchreg: %v\n", err)
				os.Exit(1)
			}
		}
		blob, _ := json.MarshalIndent(snap, "", "  ")
		if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchreg: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("recorded %d benchmarks -> %s\n", len(snap.Results), *out)
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
	if failed := compare(base, snap); failed {
		os.Exit(1)
	}
}

// run executes the benchmark suite and parses its output.
func run(benchRe string) (*Snapshot, string, error) {
	args := []string{"test", "-run", "^$", "-bench", benchRe,
		"-benchtime", benchtime, "-benchmem", "-count", strconv.Itoa(count), pkg}
	cmd := exec.Command("go", args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	runErr := cmd.Run()
	snap := &Snapshot{
		Date:      time.Now().UTC().Format("2006-01-02"),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		BenchTime: benchtime,
		NumCPU:    runtime.NumCPU(),
		Commit:    commit(),
		Results:   map[string]Result{},
	}
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		if name, r, ok := parseLine(sc.Text()); ok {
			// -count repeats each line; keep the fastest (least noisy) run.
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

// commit returns the abbreviated git HEAD of the working directory, or
// "unknown" when git (or the repository) is unavailable.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
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

// checkOverwrite refuses to replace the snapshot at path with snap when
// snap lacks any benchmark the old one recorded: a narrower -bench, or a
// rung that failed to run, would otherwise drop that rung's gate from the
// baseline without anyone noticing. A path that does not exist yet is
// fine.
func checkOverwrite(path string, snap *Snapshot) error {
	old, err := load(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("reading %s before overwriting it: %w", path, err)
	}
	var lost []string
	for name := range old.Results {
		if _, ok := snap.Results[name]; !ok {
			lost = append(lost, name)
		}
	}
	if len(lost) == 0 {
		return nil
	}
	sort.Strings(lost)
	return fmt.Errorf("refusing to overwrite %s: this run lacks %d of its benchmarks (%s); run them, or write elsewhere",
		path, len(lost), strings.Join(lost, ", "))
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
// true when any metric regresses past its gate. On failure it
// prints a dedicated regression table (worst first) so CI logs name the
// offenders without scrolling the full comparison.
func compare(base, cur *Snapshot) bool {
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
	if len(regs) == 0 {
		fmt.Println("benchreg: PASS")
		return false
	}
	printRegressionTable(regs)
	return true
}

// printRegressionTable summarizes only the failing benchmarks, sorted by
// how far past the threshold each one landed.
func printRegressionTable(regs []regression) {
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
