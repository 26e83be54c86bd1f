package obs

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/obs/journal"
	"repro/internal/obs/prof"
	"repro/internal/obs/slo"
)

// ErrSLOStrict is returned by Close when -slo-strict is set and a
// crit-severity SLO rule fired during the run. Cmds translate it into a
// distinct nonzero exit code (see Finish).
var ErrSLOStrict = errors.New("critical SLO rule fired (strict mode)")

// CLI binds the shared observability flags every cmd exposes (see
// BindFlags for their usage). Five of them name an output file, one row
// each of the sink table: -metrics (registry JSON), -dtrace (span
// JSONL, shaped by -trace-sample and -dtrace-canon), -profile
// (energy/cycle call tree), -journal (event JSONL, filtered by
// -journal-level) and -series (windowed metric JSONL, cut on the
// -series-interval wall clock or by the cmd's SeriesTick). -slo and
// -slo-strict evaluate rules over the series windows as they are cut
// and over the registry at run end; -pprof serves the live endpoints
// (see serve).
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
	seriesPath   string
	seriesEvery  time.Duration
	pprofAddr    string

	level    journal.Level
	engine   *slo.Engine
	shutdown func() error
	stop     chan struct{} // ends the -series-interval loop
	loops    sync.WaitGroup
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
	fs.StringVar(&c.seriesPath, "series", "", "record windowed metric time-series and write them (JSONL) to this file on exit")
	fs.DurationVar(&c.seriesEvery, "series-interval", 0, "cut wall-clock series windows on this period (0 = model-time ticks from the cmd)")
	fs.StringVar(&c.pprofAddr, "pprof", "", "serve pprof/expvar/metrics/progress HTTP endpoints on this address (e.g. localhost:6060)")
	return c
}

// sink is one row of the CLI's file-sink table: the flag naming its
// output file, whether the parsed flags arm it, the switch that arms or
// disarms it, how Close writes it, and, for a sink with a capacity
// bound, how many entries it dropped (named by what and unit).
type sink struct {
	flag       string
	path       *string
	on         bool
	set        func(on bool)
	write      func(io.Writer) error
	dropped    func() int64
	what, unit string
}

// sinks is the file-sink table. The metrics registry is also armed for
// the live /metrics endpoint, SLO rules and the series recorder, which
// read it without -metrics.
func (c *CLI) sinks() []sink {
	return []sink{{
		flag: "metrics", path: &c.metricsPath,
		on:  c.metricsPath != "" || c.pprofAddr != "" || c.sloPath != "" || c.seriesPath != "",
		set: Default.SetEnabled,
		write: func(w io.Writer) error {
			s := Default.Snapshot()
			if DefaultDTracer.Enabled() {
				st := DefaultDTracer.Stats()
				s.DTrace = &st
			}
			return s.WriteJSON(w)
		},
	}, {
		flag: "dtrace", path: &c.dtracePath, on: c.dtracePath != "",
		set: func(on bool) {
			if on {
				DefaultDTracer.SetProc(procName())
				DefaultDTracer.SetSampleN(c.traceSample)
				DefaultDTracer.SetCanonical(c.dtraceCanon)
			}
			DefaultDTracer.SetEnabled(on)
		},
		write:   DefaultDTracer.WriteJSONL,
		dropped: func() int64 { return int64(DefaultDTracer.Stats().Dropped) },
		what:    "span ring", unit: "span(s)",
	}, {
		flag: "profile", path: &c.profilePath, on: c.profilePath != "",
		set: prof.Default.SetEnabled, write: prof.Default.WriteJSON,
	}, {
		flag: "journal", path: &c.journalPath, on: c.journalPath != "",
		set: func(on bool) {
			if on {
				journal.Default.SetMinLevel(c.level)
			}
			journal.Default.SetEnabled(on)
		},
		write:   journal.Default.WriteJSONL,
		dropped: journal.Default.Dropped,
		what:    "journal", unit: "event(s)",
	}, {
		flag: "series", path: &c.seriesPath, on: c.seriesPath != "",
		set: func(on bool) {
			if !on {
				DefaultSeries.armed.Store(false)
				return
			}
			// Rules evaluate synchronously as each window is cut, so a
			// trajectory violation reaches the journal mid-run with the
			// window's own key, deterministic in model-tick mode.
			// WindowLookup answers no run totals, so only burn rules can
			// fire here.
			var onWindow func(t int64)
			if eng := c.engine; eng != nil {
				onWindow = func(t int64) { emitFirings(eng.Eval(t, DefaultSeries.WindowLookup)) }
			}
			DefaultSeries.Arm(Default, onWindow)
		},
		write:   DefaultSeries.WriteJSONL,
		dropped: DefaultSeries.Dropped,
		what:    "series", unit: "window(s)",
	}}
}

// Activate validates every flag and loads the SLO rules, then creates
// each requested output file, arms its sink, and starts the debug server.
// Call after flag.Parse. Output paths are created here so an unwritable
// path fails the run up front instead of silently losing the snapshot
// at Close. A failed Activate leaves every sink disarmed and starts no
// goroutine.
func (c *CLI) Activate() error {
	if err := c.validate(); err != nil {
		return err
	}
	sinks := c.sinks()
	fail := func(err error) error {
		for _, s := range sinks {
			if s.on {
				s.set(false)
			}
		}
		c.engine = nil
		return err
	}
	for _, s := range sinks {
		if !s.on {
			continue
		}
		if *s.path != "" {
			if err := os.WriteFile(*s.path, nil, 0o666); err != nil {
				return fail(fmt.Errorf("-%s: %w", s.flag, err))
			}
		}
		s.set(true)
	}
	if c.pprofAddr != "" {
		addr, shutdown, err := serve(c.pprofAddr, Default)
		if err != nil {
			return fail(err)
		}
		c.shutdown = shutdown
		fmt.Fprintf(os.Stderr, "obs: pprof/metrics/progress on http://%s/\n", addr)
	}
	if c.seriesEvery > 0 {
		// Wall-clock windows for tools with no model clock (gateway,
		// loadgen); SLO evaluation rides the onWindow callback.
		stop := make(chan struct{})
		c.stop = stop
		c.loops.Add(1)
		go func() {
			defer c.loops.Done()
			tick := time.NewTicker(c.seriesEvery)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					DefaultSeries.TickWall()
				}
			}
		}()
	}
	return nil
}

// validate checks every flag and loads the SLO rules, arming nothing.
func (c *CLI) validate() error {
	switch {
	case c.traceSample < 1:
		return fmt.Errorf("-trace-sample: must be >= 1 (got %d)", c.traceSample)
	case c.seriesEvery < 0:
		return fmt.Errorf("-series-interval: must be >= 0 (got %v)", c.seriesEvery)
	case c.seriesEvery != 0 && c.seriesPath == "":
		return fmt.Errorf("-series-interval requires -series")
	}
	lv, err := journal.ParseLevel(c.journalLevel)
	if err != nil {
		return fmt.Errorf("-journal-level: %w", err)
	}
	c.level = lv
	if c.sloPath == "" {
		return nil
	}
	rules, err := slo.LoadFile(c.sloPath)
	if err != nil {
		return fmt.Errorf("-slo: %w", err)
	}
	c.engine = slo.NewEngine(rules)
	if c.seriesPath == "" && slices.ContainsFunc(rules, func(r slo.Rule) bool { return r.Burn != nil }) {
		fmt.Fprintf(os.Stderr, "obs: rules file has burn-rate rules but -series is not set; they will stay silent\n")
	}
	return nil
}

// emitFirings turns fired rules into journal events so they reach the
// -journal file.
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

// finishSLO runs the end-of-run rule evaluation, emits journal events
// for fresh firings, and prints a summary to stderr. It runs once:
// Close drops the engine after it.
func (c *CLI) finishSLO() {
	if c.engine == nil {
		return
	}
	// Plain rules read the run totals; burn rules get one last look at
	// whatever windows exist, so a violation in the final partial span
	// is not lost.
	snap := Default.Snapshot()
	series := c.seriesPath != ""
	emitFirings(c.engine.Eval(journal.TEnd, func(metric, agg string, n int) (float64, bool) {
		if n == 0 {
			return snap.Lookup(metric, agg)
		}
		if !series {
			return 0, false
		}
		return DefaultSeries.WindowLookup(metric, agg, n)
	}))
	if all := c.engine.Firings(); len(all) > 0 {
		fmt.Fprintf(os.Stderr, "slo: %d rule(s) fired:\n%s", len(all), slo.Summary(all))
	}
}

// Close evaluates SLO rules a final time, writes every requested sink
// file, and stops the debug server. Safe to call when no flags were
// set, and idempotent enough to both defer and call explicitly before
// os.Exit. With -slo-strict it returns ErrSLOStrict
// (wrapped) if any crit-severity rule fired.
func (c *CLI) Close() error {
	if c.stop != nil {
		close(c.stop)
		c.loops.Wait()
		c.stop = nil
	}
	c.finishSLO()
	var first error
	for _, s := range c.sinks() {
		if *s.path == "" {
			continue
		}
		if s.dropped != nil {
			if n := s.dropped(); n > 0 {
				fmt.Fprintf(os.Stderr, "obs: %s capacity reached, %d %s dropped\n", s.what, n, s.unit)
			}
		}
		if err := writeFile(*s.path, s.write); err != nil && first == nil {
			first = fmt.Errorf("-%s: %w", s.flag, err)
		}
		*s.path = ""
	}
	if c.shutdown != nil {
		if err := c.shutdown(); err != nil && first == nil {
			first = err
		}
		c.shutdown = nil
	}
	if c.engine != nil && c.sloStrict && c.engine.CritCount() > 0 && first == nil {
		first = fmt.Errorf("slo: %d crit rule(s): %w", c.engine.CritCount(), ErrSLOStrict)
	}
	c.engine = nil
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

// writeFile writes one sink's output to path through a buffer.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
