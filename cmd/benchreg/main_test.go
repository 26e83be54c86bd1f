package main

import "testing"

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
