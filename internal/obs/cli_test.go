package obs

import (
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs/journal"
	"repro/internal/obs/prof"
)

// disarmDefaults restores the process-wide observability state the CLI
// mutates, so tests stay independent.
func disarmDefaults(t *testing.T) {
	t.Cleanup(func() {
		Default.SetEnabled(false)
		DefaultDTracer.SetEnabled(false)
		DefaultDTracer.Reset()
		prof.Default.SetEnabled(false)
		prof.Default.Reset()
		journal.Default.SetEnabled(false)
		journal.Default.SetMinLevel(journal.LevelInfo)
		journal.Default.Reset()
	})
}

func TestBindFlagsRegistersAll(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	BindFlags(fs)
	for _, name := range []string{
		"metrics", "profile", "pprof",
		"journal", "journal-level", "slo", "slo-strict", "slo-interval",
		"series", "series-interval",
	} {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s not registered", name)
		}
	}
}

func TestActivateNoFlagsIsInert(t *testing.T) {
	disarmDefaults(t)
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := BindFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Activate(); err != nil {
		t.Fatal(err)
	}
	if Default.Enabled() || DefaultDTracer.Enabled() || prof.Default.Enabled() {
		t.Fatal("Activate armed a default with no flags set")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestActivateUnwritablePathFails(t *testing.T) {
	disarmDefaults(t)
	for _, flagName := range []string{"metrics", "dtrace", "profile"} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		c := BindFlags(fs)
		bad := filepath.Join(t.TempDir(), "no-such-dir", "out.json")
		if err := fs.Parse([]string{"-" + flagName, bad}); err != nil {
			t.Fatal(err)
		}
		err := c.Activate()
		if err == nil {
			t.Fatalf("-%s with unwritable path: Activate succeeded, want error", flagName)
		}
		if !strings.Contains(err.Error(), "-"+flagName) {
			t.Errorf("-%s error %q does not name the flag", flagName, err)
		}
	}
}

func TestSnapshotsWrittenOnClose(t *testing.T) {
	disarmDefaults(t)
	dir := t.TempDir()
	metricsPath := filepath.Join(dir, "metrics.json")
	dtracePath := filepath.Join(dir, "spans.jsonl")
	profilePath := filepath.Join(dir, "profile.json")

	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := BindFlags(fs)
	if err := fs.Parse([]string{
		"-metrics", metricsPath, "-dtrace", dtracePath, "-profile", profilePath,
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Activate(); err != nil {
		t.Fatal(err)
	}
	if !Default.Enabled() || !DefaultDTracer.Enabled() || !prof.Default.Enabled() {
		t.Fatal("Activate left a requested default disarmed")
	}

	// Generate some signal on each surface.
	C("cli_test.counter").Inc()
	DefaultDTracer.Root(TraceID(1, 1), "cli_test", "event").End()
	prof.Frame("cli_test/frame").AddCycles(42)

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	var snap Snapshot
	mustUnmarshal(t, metricsPath, &snap)
	found := false
	for _, cv := range snap.Counters {
		if cv.Name == "cli_test.counter" && cv.Value >= 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("metrics snapshot missing cli_test.counter: %+v", snap.Counters)
	}
	if snap.DTrace == nil {
		t.Error("metrics snapshot missing span ring stats while tracing enabled")
	} else if snap.DTrace.Recorded == 0 {
		t.Errorf("span ring stats recorded = 0: %+v", snap.DTrace)
	}

	spans, skipped, err := ReadSpansFile(dtracePath)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 || len(spans) != 1 || spans[0].Name != "event" {
		t.Errorf("span file content wrong: %d skipped, %+v", skipped, spans)
	}

	profile, err := prof.Load(profilePath)
	if err != nil {
		t.Fatal(err)
	}
	found = false
	for _, f := range profile.Frames {
		if f.Path == "cli_test/frame" && f.Cycles >= 42 {
			found = true
		}
	}
	if !found {
		t.Errorf("profile missing cli_test/frame: %+v", profile.Frames)
	}

	// Close is idempotent: a second call must not rewrite files.
	if err := os.Remove(metricsPath); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(metricsPath); !os.IsNotExist(err) {
		t.Error("second Close rewrote the metrics snapshot")
	}
}

func TestJournalWrittenOnClose(t *testing.T) {
	disarmDefaults(t)
	jpath := filepath.Join(t.TempDir(), "run.jsonl")
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := BindFlags(fs)
	if err := fs.Parse([]string{"-journal", jpath, "-journal-level", "debug"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Activate(); err != nil {
		t.Fatal(err)
	}
	if !journal.Default.Enabled() || !journal.On(journal.LevelDebug) {
		t.Fatal("-journal-level debug did not arm the journal at debug")
	}
	journal.Emit(5, journal.LevelDebug, "cli_test", "ping", journal.I("n", 1))
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	events, skipped, err := journal.LoadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 || len(events) != 1 || events[0].Layer != "cli_test" || events[0].Name != "ping" {
		t.Fatalf("journal file content wrong: %d skipped, %+v", skipped, events)
	}
}

func TestActivateBadJournalLevel(t *testing.T) {
	disarmDefaults(t)
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := BindFlags(fs)
	jpath := filepath.Join(t.TempDir(), "run.jsonl")
	if err := fs.Parse([]string{"-journal", jpath, "-journal-level", "loud"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Activate(); err == nil || !strings.Contains(err.Error(), "-journal-level") {
		t.Fatalf("bad -journal-level: Activate err = %v, want flag-naming error", err)
	}
}

func TestActivateNegativeIntervals(t *testing.T) {
	disarmDefaults(t)
	dir := t.TempDir()
	for _, name := range []string{"-series-interval", "-slo-interval"} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		c := BindFlags(fs)
		if err := fs.Parse([]string{"-series", filepath.Join(dir, "s.jsonl"), name, "-1s"}); err != nil {
			t.Fatal(err)
		}
		if err := c.Activate(); err == nil || !strings.Contains(err.Error(), name) {
			t.Fatalf("negative %s: Activate err = %v, want flag-naming error", name, err)
		}
	}
}

// sloRule builds a one-rule file body firing when metric > 2. Each test
// uses a distinct metric name because the default registry's counters
// are process-global and keep their value across tests.
func sloRule(metric, severity string) string {
	return `[{"name":"too-many","metric":"` + metric +
		`","op":">","threshold":2,"severity":"` + severity + `","reason":"test"}]`
}

// sloCLI activates a CLI (with the journal armed, so firings are
// observable) against the given rules, runs arm to set up metric state,
// then Closes it and returns the error.
func sloCLI(t *testing.T, rules string, strict bool, arm func()) error {
	t.Helper()
	disarmDefaults(t)
	dir := t.TempDir()
	rpath := filepath.Join(dir, "rules.json")
	if err := os.WriteFile(rpath, []byte(rules), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"-slo", rpath, "-journal", filepath.Join(dir, "run.jsonl")}
	if strict {
		args = append(args, "-slo-strict")
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if err := c.Activate(); err != nil {
		t.Fatal(err)
	}
	arm()
	return c.Close()
}

func TestCloseStrictCritFiring(t *testing.T) {
	err := sloCLI(t, sloRule("cli_test.crit_hit", "crit"), true,
		func() { C("cli_test.crit_hit").Add(5) })
	if !errors.Is(err, ErrSLOStrict) {
		t.Fatalf("strict crit firing: Close err = %v, want ErrSLOStrict", err)
	}
	// The firing must also reach the journal for -journal/msreport/SSE.
	fired := false
	for _, e := range journal.Default.Events() {
		if e.Layer == "slo" && e.Name == "slo_fired" && e.Get("rule") == "too-many" {
			fired = true
			if e.Level != journal.LevelCrit {
				t.Errorf("crit firing journaled at level %v", e.Level)
			}
		}
	}
	if !fired {
		t.Fatal("crit firing did not reach the journal")
	}
}

func TestCloseStrictPassesWithoutCrit(t *testing.T) {
	// Metric under threshold: no firing, strict Close is clean.
	if err := sloCLI(t, sloRule("cli_test.crit_miss", "crit"), true,
		func() { C("cli_test.crit_miss").Inc() }); err != nil {
		t.Fatalf("strict with no firing: Close err = %v", err)
	}
	// Warn-severity firing: visible but never vetoes the run.
	if err := sloCLI(t, sloRule("cli_test.warn_hit", "warn"), true,
		func() { C("cli_test.warn_hit").Add(5) }); err != nil {
		t.Fatalf("strict with warn firing: Close err = %v", err)
	}
}

func TestCloseNonStrictCritFiring(t *testing.T) {
	if err := sloCLI(t, sloRule("cli_test.crit_lax", "crit"), false,
		func() { C("cli_test.crit_lax").Add(5) }); err != nil {
		t.Fatalf("non-strict crit firing: Close err = %v, want nil", err)
	}
}

func mustUnmarshal(t *testing.T, path string, v any) {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, v); err != nil {
		t.Fatalf("%s: %v\n%s", path, err, blob)
	}
}
