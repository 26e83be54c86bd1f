package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestFingerprintIgnoresBenchRegexp: two runs that differ only in which
// benchmarks they select share one fingerprint, so widening CI's -bench
// list keeps one history series; a setting that changes the numbers
// still splits it.
func TestFingerprintIgnoresBenchRegexp(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go test -bench")
	}
	const pkg = "repro/internal/crypto/des"
	narrow, raw, err := run("^BenchmarkDESBlock$", "1x", pkg, 1)
	if err != nil {
		t.Fatalf("%v\n%s", err, raw)
	}
	wide, raw, err := run("^BenchmarkDESBlock$|^Benchmark3DESBlock$", "1x", pkg, 1)
	if err != nil {
		t.Fatalf("%v\n%s", err, raw)
	}
	if len(narrow.Results) != 1 || len(wide.Results) != 2 {
		t.Fatalf("regexps selected %d and %d benchmarks, want 1 and 2", len(narrow.Results), len(wide.Results))
	}
	if narrow.Fingerprint != wide.Fingerprint {
		t.Fatalf("bench regexps split the fingerprint: %s vs %s", narrow.Fingerprint, wide.Fingerprint)
	}
	if configFingerprint("1x", pkg, 1) == configFingerprint("1x", pkg, 3) {
		t.Fatal("-count does not change the fingerprint")
	}
	if configFingerprint("1x", pkg, 1) == configFingerprint("1s", pkg, 1) {
		t.Fatal("-benchtime does not change the fingerprint")
	}
}

// TestCheckOverwrite: -out may create a snapshot or replace one with a
// run that has every old benchmark (and more), but not with a run that
// lacks any of them.
func TestCheckOverwrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	snap := func(names ...string) *Snapshot {
		s := &Snapshot{Results: map[string]Result{}}
		for _, n := range names {
			s.Results[n] = Result{NsPerOp: 1, Iterations: 1}
		}
		return s
	}
	if err := checkOverwrite(path, snap("BenchmarkA")); err != nil {
		t.Fatalf("new file refused: %v", err)
	}
	blob, err := json.Marshal(snap("BenchmarkA", "BenchmarkB/x"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkOverwrite(path, snap("BenchmarkA", "BenchmarkB/x", "BenchmarkC")); err != nil {
		t.Fatalf("superset refused: %v", err)
	}
	err = checkOverwrite(path, snap("BenchmarkA", "BenchmarkC"))
	if err == nil || !strings.Contains(err.Error(), "BenchmarkB/x") {
		t.Fatalf("run lacking BenchmarkB/x: err = %v, want a refusal naming it", err)
	}
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkOverwrite(path, snap("BenchmarkA")); err == nil {
		t.Fatal("unreadable existing snapshot was overwritten without complaint")
	}
}

// TestDefaultBenchIsCommittedBaseline: the default -bench list selects
// every rung the committed baseline gates, so a refresh without -bench
// keeps each gate.
func TestDefaultBenchIsCommittedBaseline(t *testing.T) {
	base, err := load("../../bench/BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(rungs)
	for name := range base.Results {
		if top, _, _ := strings.Cut(name, "/"); !re.MatchString(top) {
			t.Errorf("baseline entry %s is not selected by the default -bench list", name)
		}
	}
}
