package history

import (
	"os"
	"path/filepath"
	"testing"
)

func TestAppendLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nested", "history.jsonl")
	r1 := Record{
		Date: "2026-08-06", Source: "benchreg", Commit: "abc1234",
		GoVersion: "go1.22", Fingerprint: Fingerprint("a", "b"),
		Headline: map[string]float64{"RC4_ns_per_op": 12.5},
	}
	r2 := Record{
		Date: "2026-08-07", Source: "benchreg", Commit: "def5678",
		GoVersion: "go1.22", NumCPU: 4, Seed: "fig4",
		Headline: map[string]float64{"slo_fired": 0},
	}
	if err := Append(path, r1); err != nil {
		t.Fatal(err)
	}
	if err := Append(path, r2); err != nil {
		t.Fatal(err)
	}
	got, skipped, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || skipped != 0 {
		t.Fatalf("loaded %d records (%d skipped), want 2 (0 skipped)", len(got), skipped)
	}
	if got[0].Source != "benchreg" || got[0].Headline["RC4_ns_per_op"] != 12.5 {
		t.Fatalf("record 0 = %+v", got[0])
	}
	if got[1].Seed != "fig4" || got[1].NumCPU != 4 || got[1].Headline["slo_fired"] != 0 {
		t.Fatalf("record 1 = %+v", got[1])
	}
}

func TestLoadMissingFileIsEmpty(t *testing.T) {
	got, skipped, err := Load(filepath.Join(t.TempDir(), "nope.jsonl"))
	if err != nil || got != nil || skipped != 0 {
		t.Fatalf("Load(missing) = %v, %d, %v; want nil, 0, nil", got, skipped, err)
	}
}

func TestLoadSkipsMalformedLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.jsonl")
	blob := `{"date":"2026-08-06","source":"benchreg"}
this line is not JSON
{"date":"","source":"benchreg"}
{"commit":"abc1234"}
` + "\n" + `{"date":"2026-08-07","source":"msreport"}
`
	if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	got, skipped, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Source != "benchreg" || got[1].Source != "msreport" {
		t.Fatalf("loaded %+v, want the two valid records", got)
	}
	// One unparseable line plus two records failing validation (empty
	// date, missing source); the blank line is not counted.
	if skipped != 3 {
		t.Fatalf("skipped = %d, want 3", skipped)
	}
}

func TestFingerprintStableAndDistinct(t *testing.T) {
	a := Fingerprint("x", "y")
	if a != Fingerprint("x", "y") {
		t.Fatal("fingerprint not deterministic")
	}
	if len(a) != 12 {
		t.Fatalf("fingerprint length = %d, want 12 hex chars", len(a))
	}
	if a == Fingerprint("xy") || a == Fingerprint("x", "y", "") {
		t.Fatal("separator-free collision: distinct part lists share a fingerprint")
	}
}

func TestCommitNeverEmpty(t *testing.T) {
	if Commit() == "" {
		t.Fatal("Commit() returned empty string; want hash or \"unknown\"")
	}
}

func TestTodayFormat(t *testing.T) {
	d := Today()
	if len(d) != 10 || d[4] != '-' || d[7] != '-' {
		t.Fatalf("Today() = %q, want YYYY-MM-DD", d)
	}
}
