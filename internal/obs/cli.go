package obs

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/obs/journal"
	"repro/internal/obs/prof"
	"repro/internal/obs/slo"
)

// ErrSLOStrict is returned by Close when -slo-strict is set and a
// crit-severity SLO rule fired during the run. Cmds translate it into a
// distinct nonzero exit code (see Finish).
var ErrSLOStrict = errors.New("critical SLO rule fired (strict mode)")

// CLI binds the shared observability flags every cmd exposes:
//
//	-metrics <file>   arm the default registry; write its JSON snapshot
//	                  to <file> on Close
//	-dtrace <file>    arm the default span tracer; write its
//	                  span JSONL (sorted, cross-process mergeable) to
//	                  <file> on Close
//	-trace-sample N   head-based sampling for -dtrace: keep 1 in N
//	                  traces, decided deterministically by trace ID
//	-dtrace-canon     zero span timestamps so the -dtrace export is
//	                  byte-identical across worker counts
//	-profile <file>   arm the default energy/cycle profiler; write its
//	                  JSON call tree to <file> on Close
//	-journal <file>   arm the default event journal; write its merged
//	                  JSONL (deterministic (t_sim, seq) order) on Close
//	-journal-level L  minimum journal level (debug, info, warn, crit)
//	-slo <file>       load SLO rules and evaluate them at run end
//	-slo-strict       exit nonzero when a crit-severity rule fires
//	-slo-interval D   also evaluate rules on this wall-clock period
//	-series <file>    record windowed metric time-series; write JSONL
//	                  windows to <file> on Close
//	-series-interval D  cut wall-clock windows on this period (0 = the
//	                  cmd ticks model time itself, e.g. fleet epochs)
//	-pprof <addr>     serve pprof/expvar/metrics/events/progress on addr
//
// Usage in a cmd:
//
//	o := obs.BindFlags(flag.CommandLine)
//	flag.Parse()
//	defer o.Close()
//	if err := o.Activate(); err != nil { ... }
//	...
//	o.Finish("toolname") // last statement: flush + strict exit code
//
// All flags are opt-in; with none set, Activate and Close do nothing
// and the instrumented layers stay on their disarmed fast path.
type CLI struct {
	metricsPath  string
	dtracePath   string
	traceSample  int
	dtraceCanon  bool
	profilePath  string
	journalPath  string
	journalLevel string
	sloPath      string
	sloStrict    bool
	sloInterval  time.Duration
	seriesPath   string
	seriesEvery  time.Duration
	pprofAddr    string

	engine     *slo.Engine
	sloDone    bool
	shutdown   func() error
	stopEval   chan struct{}
	stopSeries chan struct{}
	sink       SeriesSink
}

// BindFlags registers the observability flags on fs.
func BindFlags(fs *flag.FlagSet) *CLI {
	c := &CLI{}
	fs.StringVar(&c.metricsPath, "metrics", "", "write a JSON metrics snapshot to this file on exit")
	fs.StringVar(&c.dtracePath, "dtrace", "", "write the distributed span trace (JSONL) to this file on exit")
	fs.IntVar(&c.traceSample, "trace-sample", 1, "keep 1 in N distributed traces (head-based, deterministic by trace ID)")
	fs.BoolVar(&c.dtraceCanon, "dtrace-canon", false, "zero span timestamps in the distributed trace for byte-diffable exports")
	fs.StringVar(&c.profilePath, "profile", "", "write the energy/cycle profile (JSON call tree) to this file on exit")
	fs.StringVar(&c.journalPath, "journal", "", "write the structured event journal (JSONL) to this file on exit")
	fs.StringVar(&c.journalLevel, "journal-level", "info", "minimum journal level: debug, info, warn or crit")
	fs.StringVar(&c.sloPath, "slo", "", "evaluate the SLO rules in this JSON file against the run's metrics")
	fs.BoolVar(&c.sloStrict, "slo-strict", false, "exit nonzero when a crit-severity SLO rule fires")
	fs.DurationVar(&c.sloInterval, "slo-interval", 0, "also evaluate SLO rules on this wall-clock period (0 = run end only)")
	fs.StringVar(&c.seriesPath, "series", "", "record windowed metric time-series and write them (JSONL) to this file on exit")
	fs.DurationVar(&c.seriesEvery, "series-interval", 0, "cut wall-clock series windows on this period (0 = model-time ticks from the cmd)")
	fs.StringVar(&c.pprofAddr, "pprof", "", "serve pprof/expvar/metrics/events/progress HTTP endpoints on this address (e.g. localhost:6060)")
	return c
}

// Activate arms the default registry/span tracer/profiler/journal, loads SLO
// rules, and starts the debug server according to the parsed flags.
// Call after flag.Parse. Output paths are created here so an unwritable
// path fails the run up front instead of silently losing the snapshot
// at Close.
func (c *CLI) Activate() error {
	if c.metricsPath != "" || c.pprofAddr != "" || c.sloPath != "" || c.seriesPath != "" {
		if err := touch(c.metricsPath); err != nil {
			return fmt.Errorf("-metrics: %w", err)
		}
		Default.SetEnabled(true)
	}
	if c.traceSample < 1 {
		return fmt.Errorf("-trace-sample: must be >= 1 (got %d)", c.traceSample)
	}
	if c.sloInterval < 0 {
		return fmt.Errorf("-slo-interval: must be >= 0 (got %v)", c.sloInterval)
	}
	if c.seriesEvery < 0 {
		return fmt.Errorf("-series-interval: must be >= 0 (got %v)", c.seriesEvery)
	}
	if c.dtracePath != "" {
		if err := touch(c.dtracePath); err != nil {
			return fmt.Errorf("-dtrace: %w", err)
		}
		DefaultDTracer.SetProc(procName())
		DefaultDTracer.SetSampleN(c.traceSample)
		DefaultDTracer.SetCanonical(c.dtraceCanon)
		DefaultDTracer.SetEnabled(true)
	}
	if c.profilePath != "" {
		if err := touch(c.profilePath); err != nil {
			return fmt.Errorf("-profile: %w", err)
		}
		prof.Default.SetEnabled(true)
	}
	if c.journalPath != "" || c.pprofAddr != "" {
		if err := touch(c.journalPath); err != nil {
			return fmt.Errorf("-journal: %w", err)
		}
		lv, err := journal.ParseLevel(c.journalLevel)
		if err != nil {
			return fmt.Errorf("-journal-level: %w", err)
		}
		journal.Default.SetMinLevel(lv)
		journal.Default.SetEnabled(true)
	}
	if c.sloPath != "" {
		rules, err := slo.LoadFile(c.sloPath)
		if err != nil {
			return fmt.Errorf("-slo: %w", err)
		}
		c.engine = slo.NewEngine(rules)
		if c.sloInterval > 0 {
			c.stopEval = make(chan struct{})
			go c.evalLoop()
		}
	}
	if c.seriesEvery != 0 && c.seriesPath == "" {
		return fmt.Errorf("-series-interval requires -series")
	}
	if c.seriesPath != "" {
		if err := touch(c.seriesPath); err != nil {
			return fmt.Errorf("-series: %w", err)
		}
		c.sink = GetSeriesSink()
		if c.sink == nil {
			return fmt.Errorf("-series: no series recorder linked into this binary (import repro/internal/obs/ts)")
		}
		// Burn-rate rules evaluate synchronously as each window is cut,
		// so a trajectory violation reaches the journal mid-run with the
		// window's own key, deterministic in model-tick mode.
		var onWindow func(t int64)
		if c.engine != nil && c.engine.HasBurnRules() {
			eng, sink := c.engine, c.sink
			onWindow = func(t int64) { emitFirings(eng.EvalBurn(t, sink.WindowLookup)) }
		}
		c.sink.Arm(Default, onWindow)
		if c.seriesEvery > 0 {
			c.stopSeries = make(chan struct{})
			go c.seriesLoop()
		}
	}
	if c.engine != nil && c.engine.HasBurnRules() && c.sink == nil {
		fmt.Fprintf(os.Stderr, "obs: rules file has burn-rate rules but -series is not set; they will stay silent\n")
	}
	if c.pprofAddr != "" {
		cfg := ServerConfig{
			Registry: Default,
			Journal:  journal.Default,
			Progress: ProgressSource(),
		}
		if c.engine != nil {
			eng := c.engine
			cfg.Alerts = func() []byte { return slo.MarshalFirings(eng.Firings()) }
		}
		addr, shutdown, err := ServeConfig(c.pprofAddr, cfg)
		if err != nil {
			return err
		}
		c.shutdown = shutdown
		fmt.Fprintf(os.Stderr, "obs: pprof/metrics/events/progress on http://%s/\n", addr)
	}
	return nil
}

// evalLoop periodically evaluates SLO rules against live snapshots so
// long-running tools surface budget violations while they execute (the
// firing also reaches /events subscribers through the journal).
func (c *CLI) evalLoop() {
	tick := time.NewTicker(c.sloInterval)
	defer tick.Stop()
	for {
		select {
		case <-c.stopEval:
			return
		case <-tick.C:
			snap := Default.Snapshot()
			emitFirings(c.engine.Eval(journal.TEnd, snap.Lookup))
		}
	}
}

// seriesLoop cuts wall-clock windows on the -series-interval period for
// tools with no model clock (gateway, loadgen). Burn-rate evaluation
// rides the recorder's onWindow callback.
func (c *CLI) seriesLoop() {
	tick := time.NewTicker(c.seriesEvery)
	defer tick.Stop()
	for {
		select {
		case <-c.stopSeries:
			return
		case <-tick.C:
			c.sink.TickWall()
		}
	}
}

// emitFirings turns fired rules into journal events so they reach the
// -journal file, /events subscribers, and the msreport alert table.
func emitFirings(firings []slo.Firing) {
	for _, f := range firings {
		lv := journal.LevelWarn
		if f.Rule.Severity == slo.Crit {
			lv = journal.LevelCrit
		}
		fields := []journal.Field{
			journal.S("rule", f.Rule.Name),
			journal.S("severity", string(f.Rule.Severity)),
			journal.S("metric", f.Rule.Metric),
			journal.F("value", f.Value),
			journal.S("op", f.Rule.Op),
			journal.F("threshold", f.Rule.Threshold),
		}
		if f.Rule.Burn != nil {
			fields = append(fields,
				journal.F("slow_value", f.SlowValue),
				journal.I("burn_fast", int64(f.Rule.Burn.Fast)),
				journal.I("burn_slow", int64(f.Rule.Burn.Slow)),
			)
		}
		fields = append(fields, journal.S("reason", f.Rule.Reason))
		journal.Emit(f.TSim, lv, "slo", "slo_fired", fields...)
	}
}

// finishSLO runs the end-of-run rule evaluation exactly once, emits
// journal events for fresh firings, and prints a summary to stderr.
func (c *CLI) finishSLO() {
	if c.engine == nil || c.sloDone {
		return
	}
	c.sloDone = true
	if c.stopEval != nil {
		close(c.stopEval)
		c.stopEval = nil
	}
	snap := Default.Snapshot()
	emitFirings(c.engine.Eval(journal.TEnd, snap.Lookup))
	if c.sink != nil {
		// One last burn evaluation over whatever windows exist, so a
		// violation in the final partial span is not lost.
		emitFirings(c.engine.EvalBurn(journal.TEnd, c.sink.WindowLookup))
	}
	if all := c.engine.Firings(); len(all) > 0 {
		fmt.Fprintf(os.Stderr, "slo: %d rule(s) fired:\n%s", len(all), slo.Summary(all))
	}
}

// Close writes the requested metrics/span/profile/journal files, stops
// the debug server, and evaluates SLO rules a final time. Safe to call
// when no flags were set, and idempotent enough to both defer and call
// explicitly before os.Exit. With -slo-strict it returns ErrSLOStrict
// (wrapped) if any crit-severity rule fired.
func (c *CLI) Close() error {
	var first error
	if c.stopSeries != nil {
		close(c.stopSeries)
		c.stopSeries = nil
	}
	c.finishSLO()
	if c.seriesPath != "" && c.sink != nil {
		if err := c.sink.WriteFile(c.seriesPath); err != nil && first == nil {
			first = err
		}
		c.seriesPath = ""
	}
	if c.metricsPath != "" {
		s := Default.Snapshot()
		if DefaultDTracer.Enabled() {
			st := DefaultDTracer.Stats()
			s.DTrace = &st
		}
		if err := s.WriteFile(c.metricsPath); err != nil && first == nil {
			first = err
		}
		c.metricsPath = ""
	}
	if c.dtracePath != "" {
		if st := DefaultDTracer.Stats(); st.Dropped > 0 {
			fmt.Fprintf(os.Stderr, "obs: span ring capacity reached, %d span(s) dropped\n", st.Dropped)
		}
		if err := DefaultDTracer.WriteFile(c.dtracePath); err != nil && first == nil {
			first = err
		}
		c.dtracePath = ""
	}
	if c.profilePath != "" {
		if err := prof.Default.WriteFile(c.profilePath); err != nil && first == nil {
			first = err
		}
		c.profilePath = ""
	}
	if c.journalPath != "" {
		if n := journal.Default.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "obs: journal capacity reached, %d event(s) dropped\n", n)
		}
		if err := journal.Default.WriteFile(c.journalPath); err != nil && first == nil {
			first = err
		}
		c.journalPath = ""
	}
	if c.shutdown != nil {
		if err := c.shutdown(); err != nil && first == nil {
			first = err
		}
		c.shutdown = nil
	}
	if c.engine != nil {
		if c.sloStrict && c.engine.CritCount() > 0 {
			if first == nil {
				first = fmt.Errorf("slo: %d crit rule(s): %w", c.engine.CritCount(), ErrSLOStrict)
			}
		}
		c.engine = nil
	}
	return first
}

// Finish is the cmd epilogue: it closes the CLI and exits nonzero if
// flushing failed or strict SLO mode vetoed the run (exit 3, distinct
// from general tool failure). Call as the last statement of main; the
// paired defer o.Close() then has nothing left to do.
func (c *CLI) Finish(tool string) {
	if err := c.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
		if errors.Is(err, ErrSLOStrict) {
			os.Exit(3)
		}
		os.Exit(1)
	}
}

// procName is the process name stamped on exported spans so merged
// multi-process traces keep their halves apart ("msload", "msgateway").
func procName() string {
	if len(os.Args) == 0 || os.Args[0] == "" {
		return "proc"
	}
	return filepath.Base(os.Args[0])
}

// touch creates (or truncates) path so permission/path errors surface at
// Activate time. Empty paths are ignored.
func touch(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return f.Close()
}
