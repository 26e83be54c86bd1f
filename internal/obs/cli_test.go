package obs

import (
	"encoding/json"
	"errors"
	"flag"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

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
		DefaultSeries.armed.Store(false)
	})
}

// activate binds a fresh CLI, parses args and runs Activate.
func activate(t *testing.T, args ...string) (*CLI, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return c, c.Activate()
}

// assertInert fails unless all five default sinks are disarmed and no
// goroutine outlived a failed Activate that started with before.
func assertInert(t *testing.T, before int) {
	t.Helper()
	if Default.Enabled() || DefaultDTracer.Enabled() || prof.Default.Enabled() ||
		journal.Default.Enabled() || DefaultSeries.armed.Load() {
		t.Fatalf("failed Activate left a sink armed: metrics=%v dtrace=%v profile=%v journal=%v series=%v",
			Default.Enabled(), DefaultDTracer.Enabled(), prof.Default.Enabled(),
			journal.Default.Enabled(), DefaultSeries.armed.Load())
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("failed Activate leaked goroutines: %d -> %d", before, n)
	}
}

func TestBindFlagsRegistersAll(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	BindFlags(fs)
	for _, name := range []string{
		"metrics", "profile", "pprof",
		"journal", "journal-level", "slo", "slo-strict",
		"series", "series-interval",
	} {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s not registered", name)
		}
	}
}

func TestActivateNoFlagsIsInert(t *testing.T) {
	disarmDefaults(t)
	c, err := activate(t)
	if err != nil {
		t.Fatal(err)
	}
	if Default.Enabled() || DefaultDTracer.Enabled() || prof.Default.Enabled() {
		t.Fatal("Activate armed a default with no flags set")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestActivateUnwritablePathFails arms every file sink with one path
// unwritable, so the sinks armed before it must be rolled back; an
// unlistenable -pprof address fails after all of them are armed.
func TestActivateUnwritablePathFails(t *testing.T) {
	disarmDefaults(t)
	flags := []string{"metrics", "dtrace", "profile", "journal", "series", "pprof"}
	for _, bad := range flags {
		dir := t.TempDir()
		var args []string
		for _, name := range flags[:5] {
			path := filepath.Join(dir, name+".out")
			if name == bad {
				path = filepath.Join(dir, "no-such-dir", "out.json")
			}
			args = append(args, "-"+name, path)
		}
		if bad == "pprof" {
			args = append(args, "-pprof", "127.0.0.1:-1")
		}
		before := runtime.NumGoroutine()
		_, err := activate(t, args...)
		if err == nil {
			t.Fatalf("-%s unusable: Activate succeeded, want error", bad)
		}
		want := "-" + bad
		if bad == "pprof" {
			want = "pprof listen"
		}
		if !strings.Contains(err.Error(), want) {
			t.Errorf("-%s error %q does not name the flag", bad, err)
		}
		assertInert(t, before)
	}
}

func TestSnapshotsWrittenOnClose(t *testing.T) {
	disarmDefaults(t)
	dir := t.TempDir()
	metricsPath := filepath.Join(dir, "metrics.json")
	dtracePath := filepath.Join(dir, "spans.jsonl")
	profilePath := filepath.Join(dir, "profile.json")

	c, err := activate(t, "-metrics", metricsPath, "-dtrace", dtracePath, "-profile", profilePath)
	if err != nil {
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
	c, err := activate(t, "-journal", jpath, "-journal-level", "debug")
	if err != nil {
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

// TestActivateBadJournalLevel checks that flags are validated before any
// output file is touched: a bad level leaves -metrics' file as it was.
func TestActivateBadJournalLevel(t *testing.T) {
	disarmDefaults(t)
	dir := t.TempDir()
	mpath := filepath.Join(dir, "m.json")
	if err := os.WriteFile(mpath, []byte("previous run\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	_, err := activate(t, "-metrics", mpath, "-journal", filepath.Join(dir, "run.jsonl"), "-journal-level", "loud")
	if err == nil || !strings.Contains(err.Error(), "-journal-level") {
		t.Fatalf("bad -journal-level: Activate err = %v, want flag-naming error", err)
	}
	assertInert(t, before)
	if blob, err := os.ReadFile(mpath); err != nil || string(blob) != "previous run\n" {
		t.Fatalf("failed Activate touched -metrics file: %q, %v", blob, err)
	}
}

func TestActivateNegativeIntervals(t *testing.T) {
	disarmDefaults(t)
	dir := t.TempDir()
	before := runtime.NumGoroutine()
	_, err := activate(t, "-series", filepath.Join(dir, "s.jsonl"), "-series-interval", "-1s")
	if err == nil || !strings.Contains(err.Error(), "-series-interval") {
		t.Fatalf("negative -series-interval: Activate err = %v, want flag-naming error", err)
	}
	assertInert(t, before)
}

// TestActivateSeriesIntervalNeedsSeries: the rules load, but
// -series-interval without -series fails, and must not leave the
// window loop running.
func TestActivateSeriesIntervalNeedsSeries(t *testing.T) {
	disarmDefaults(t)
	rpath := filepath.Join(t.TempDir(), "r.json")
	if err := os.WriteFile(rpath, []byte(sloRule("cli_test.interval", "warn")), 0o644); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	_, err := activate(t, "-slo", rpath, "-series-interval", "1s")
	if err == nil || !strings.Contains(err.Error(), "-series-interval requires -series") {
		t.Fatalf("Activate err = %v, want -series-interval requires -series", err)
	}
	assertInert(t, before)
}

// TestProgressResolvedPerRequest: the cmd registers its progress source
// after Activate has started the debug server, and /progress must serve
// it. -pprof alone arms the registry /metrics reads but not the journal,
// and Close stops the server without leaving a goroutine behind.
func TestProgressResolvedPerRequest(t *testing.T) {
	disarmDefaults(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	before := runtime.NumGoroutine()
	c, err := activate(t, "-pprof", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !Default.Enabled() || journal.Default.Enabled() {
		t.Fatalf("-pprof armed metrics=%v journal=%v, want metrics only",
			Default.Enabled(), journal.Default.Enabled())
	}
	SetProgressSource(func() Progress { return Progress{Label: "cli_test"} })
	resp, err := http.Get("http://" + addr + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"label":"cli_test"`) {
		t.Fatalf("/progress = %d %q, want the source registered after Activate", resp.StatusCode, body)
	}

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if conn, err := net.Dial("tcp", addr); err == nil {
		conn.Close()
		t.Fatalf("%s still accepts connections after Close", addr)
	}
	// The Serve loop, its connection handlers and the client's
	// keep-alive goroutines all exit once the server has shut down.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("Close leaked goroutines: %d -> %d", before, n)
	}
}

// TestSeriesModelTicksWritten: -series arms the default recorder, the
// cmd's SeriesTick calls cut model-time windows, and Close writes them.
func TestSeriesModelTicksWritten(t *testing.T) {
	disarmDefaults(t)
	path := filepath.Join(t.TempDir(), "s.jsonl")
	c, err := activate(t, "-series", path)
	if err != nil {
		t.Fatal(err)
	}
	C("cli_test.series").Add(2)
	SeriesTick(10)
	C("cli_test.series").Add(3)
	SeriesTick(20)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	ws := readSeries(t, path)
	if len(ws) != 2 || ws[0].T != 10 || ws[1].T != 20 {
		t.Fatalf("windows = %+v, want t=10 and t=20", ws)
	}
	for i, want := range []int64{2, 3} {
		if len(ws[i].Counters) != 1 || ws[i].Counters[0].Name != "cli_test.series" || ws[i].Counters[0].Value != want {
			t.Fatalf("window %d counters = %+v, want cli_test.series=%d", i, ws[i].Counters, want)
		}
	}
}

// TestSeriesBurnRuleFiresOnWindow: a burn-rate rule is evaluated as each
// window is cut, so its firing carries the window's t_sim, not the
// end-of-run -1.
func TestSeriesBurnRuleFiresOnWindow(t *testing.T) {
	disarmDefaults(t)
	dir := t.TempDir()
	rpath := filepath.Join(dir, "r.json")
	rule := `[{"name":"cli-burn","metric":"cli_test.burn","op":">","threshold":1,` +
		`"severity":"warn","burn":{"fast":1,"slow":2},"reason":"test"}]`
	if err := os.WriteFile(rpath, []byte(rule), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := activate(t, "-slo", rpath, "-series", filepath.Join(dir, "s.jsonl"),
		"-journal", filepath.Join(dir, "run.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	C("cli_test.burn").Add(5)
	SeriesTick(1)
	C("cli_test.burn").Add(5)
	SeriesTick(2)
	var fired []journal.Event
	for _, e := range journal.Default.Events() {
		if e.Name == "slo_fired" && e.Get("rule") == "cli-burn" {
			fired = append(fired, e)
		}
	}
	if len(fired) != 1 || fired[0].TSim != 2 {
		t.Fatalf("burn firings = %+v, want one at t_sim 2", fired)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPlainRuleSilentAtWindowCuts: a plain rule reads run totals only,
// so a ratio that trips in one window and recovers before run end never
// fires, even with -series cutting windows mid-run.
func TestPlainRuleSilentAtWindowCuts(t *testing.T) {
	disarmDefaults(t)
	dir := t.TempDir()
	rpath := filepath.Join(dir, "r.json")
	rule := `[{"name":"cli-ratio","metric":"cli_test.ratio_retries","denom":"cli_test.ratio_ok",` +
		`"op":">","threshold":2,"severity":"warn","reason":"test"}]`
	if err := os.WriteFile(rpath, []byte(rule), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := activate(t, "-slo", rpath, "-series", filepath.Join(dir, "s.jsonl"),
		"-journal", filepath.Join(dir, "run.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	C("cli_test.ratio_retries").Add(5)
	C("cli_test.ratio_ok").Add(1)
	SeriesTick(1) // 5/1: over threshold in this window
	C("cli_test.ratio_ok").Add(99)
	SeriesTick(2) // run totals now 5/100
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for _, e := range journal.Default.Events() {
		if e.Name == "slo_fired" && e.Get("rule") == "cli-ratio" {
			t.Fatalf("plain rule fired: %+v", e)
		}
	}
}

// TestSeriesIntervalCutsWallWindows: with -series-interval the CLI cuts
// windows on the wall clock, keyed by milliseconds since Activate.
func TestSeriesIntervalCutsWallWindows(t *testing.T) {
	disarmDefaults(t)
	path := filepath.Join(t.TempDir(), "s.jsonl")
	c, err := activate(t, "-series", path, "-series-interval", "2ms")
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); len(DefaultSeries.Windows()) < 2; {
		if time.Now().After(deadline) {
			t.Fatal("no wall-clock windows cut within 5s")
		}
		time.Sleep(time.Millisecond)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	ws := readSeries(t, path)
	if len(ws) < 2 || ws[1].T < ws[0].T || ws[1].I != 1 {
		t.Fatalf("wall windows = %+v, want >= 2 in tick order", ws)
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
	c, err := activate(t, args...)
	if err != nil {
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
