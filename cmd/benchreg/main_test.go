package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

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
