// msreport turns the run artifacts the other cmds write — energy/cycle
// profiles (-profile), distributed span traces (-dtrace, repeatable:
// the msload and msgateway halves of a soak merge into end-to-end
// traces) and the cross-run history book — into human-facing views: a
// self-contained HTML report (inline SVG flame graphs, per-session span
// waterfalls with critical-path attribution, layer-cost tables, history
// trend sparklines; no external assets, no scripts), a folded-stack
// text file for standard flamegraph tooling, and a pprof-style top
// table on stdout. Metric snapshots, series and journals are JSON
// already and are read as they are.
//
// Typical flow:
//
//	go run ./cmd/batteryfig -profile bat.prof.json > fig4.csv
//	go run ./cmd/msreport -profile bat.prof.json -html report.html -folded bat.folded
//
// Multiple -profile flags merge frame-by-frame, so a report can cover a
// whole sweep. Everything rendered is derived from the inputs alone —
// no clocks — so identical inputs yield byte-identical outputs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/obs"
	"repro/internal/obs/history"
	"repro/internal/obs/prof"
	"repro/internal/obs/report"
)

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }

// topN is the row count of the stdout top tables, the same as the HTML
// report's.
const topN = 15

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "msreport:", err)
		os.Exit(1)
	}
}

// run parses args, loads every input, writes the requested files and
// prints the top table and dtrace summary to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("msreport", flag.ExitOnError)
	var profilePaths multiFlag
	fs.Var(&profilePaths, "profile", "energy/cycle profile JSON to include (repeatable; multiple merge)")
	var dtracePaths multiFlag
	fs.Var(&dtracePaths, "dtrace", "distributed span trace JSONL to include (repeatable; client and server files merge into end-to-end traces)")
	historyPath := fs.String("history", "", "cross-run history JSONL to render trends from (e.g. bench/history.jsonl)")
	htmlPath := fs.String("html", "", "write the self-contained HTML report here")
	foldedPath := fs.String("folded", "", "write folded stacks (flamegraph.pl/speedscope input) here")
	weight := fs.String("weight", "auto", "weight for folded/top views: cycles, energy or auto")
	title := fs.String("title", "mobilesec run report", "report title")
	_ = fs.Parse(args)

	if len(profilePaths) == 0 && len(dtracePaths) == 0 && *historyPath == "" {
		return fmt.Errorf("nothing to report: give at least one of -profile, -dtrace, -history")
	}

	var merged *prof.Profile
	if len(profilePaths) > 0 {
		loaded := make([]*prof.Profile, 0, len(profilePaths))
		for _, path := range profilePaths {
			p, err := prof.Load(path)
			if err != nil {
				return err
			}
			loaded = append(loaded, p)
		}
		merged = prof.Merge(loaded...)
	}

	// Merge every -dtrace file: the usual pair is the msload and
	// msgateway halves of one soak, which join into end-to-end traces.
	var spans []obs.SpanRec
	spansSkipped := 0
	for _, path := range dtracePaths {
		ss, skipped, err := obs.ReadSpansFile(path)
		if err != nil {
			return err
		}
		spans = append(spans, ss...)
		spansSkipped += skipped
		if skipped > 0 {
			fmt.Fprintf(os.Stderr, "msreport: %s: skipped %d malformed span line(s)\n", path, skipped)
		}
	}

	var records []history.Record
	if *historyPath != "" {
		var err error
		var skipped int
		records, skipped, err = history.Load(*historyPath)
		if err != nil {
			return err
		}
		if skipped > 0 {
			fmt.Fprintf(os.Stderr, "msreport: %s: skipped %d malformed history record(s)\n", *historyPath, skipped)
		}
	}

	by := prof.Cycles
	if merged != nil {
		var err error
		by, err = prof.ParseWeight(*weight, merged)
		if err != nil {
			return err
		}
	}

	if *htmlPath != "" {
		f, err := os.Create(*htmlPath)
		if err != nil {
			return err
		}
		werr := report.HTML(f, report.Data{
			Title:        *title,
			Profile:      merged,
			Spans:        spans,
			SpansSkipped: spansSkipped,
			History:      records,
		})
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
	}

	if *foldedPath != "" {
		if merged == nil {
			return fmt.Errorf("-folded needs at least one -profile")
		}
		f, err := os.Create(*foldedPath)
		if err != nil {
			return err
		}
		werr := merged.WriteFolded(f, by)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
	}

	if merged != nil {
		cycles, uj := merged.Totals()
		fmt.Fprintf(stdout, "profile: %d frames, %d instr, %d µJ (top by %s)\n",
			len(merged.Frames), cycles, uj, by)
		if err := merged.WriteTop(stdout, by, topN); err != nil {
			return err
		}
	}

	if len(spans) > 0 {
		trees := obs.BuildTraces(spans)
		nMerged, covered := 0, 0
		minCov := 1.0
		for i := range trees {
			if trees[i].Merged {
				nMerged++
			}
			if trees[i].Coverage >= 0.95 {
				covered++
			}
			if trees[i].Coverage < minCov {
				minCov = trees[i].Coverage
			}
		}
		// One greppable line for CI: traces reassembled, cross-process
		// merges, and how much of each session's duration the named spans
		// explain.
		fmt.Fprintf(stdout, "dtrace: traces=%d spans=%d merged=%d coverage_ge95=%d min_coverage=%.3f\n",
			len(trees), len(spans), nMerged, covered, minCov)
		fmt.Fprintln(stdout, "critical path (self-time by span kind):")
		for _, e := range obs.CritTop(trees, topN) {
			fmt.Fprintf(stdout, "  %10d µs  %6d×  %s\n", e.SelfUS, e.Count, e.Key)
		}
	}
	return nil
}
