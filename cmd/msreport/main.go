// msreport turns the run artifacts the other cmds write — energy/cycle
// profiles (-profile), metric snapshots (-metrics), distributed span
// traces (-dtrace, repeatable: the msload and msgateway halves of a
// soak merge into end-to-end traces) and the cross-run history book —
// into human-facing views: a self-contained HTML report (inline SVG
// flame graphs, per-session span waterfalls with critical-path
// attribution, layer-cost tables, metric summaries, history trend
// sparklines; no external assets, no scripts),
// a folded-stack text file for standard flamegraph tooling, and a
// pprof-style top table on stdout.
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
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/obs/history"
	"repro/internal/obs/journal"
	"repro/internal/obs/prof"
	"repro/internal/obs/report"
)

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }

func main() {
	var profiles multiFlag
	flag.Var(&profiles, "profile", "energy/cycle profile JSON to include (repeatable; multiple merge)")
	metricsPath := flag.String("metrics", "", "metrics snapshot JSON to include")
	var dtraces multiFlag
	flag.Var(&dtraces, "dtrace", "distributed span trace JSONL to include (repeatable; client and server files merge into end-to-end traces)")
	journalPath := flag.String("journal", "", "structured event journal JSONL to include (SLO alert table, per-layer counts)")
	seriesPath := flag.String("series", "", "windowed metric time-series JSONL to render as a timeline panel")
	historyPath := flag.String("history", "", "cross-run history JSONL to render trends from (e.g. bench/history.jsonl)")
	htmlPath := flag.String("html", "", "write the self-contained HTML report here")
	foldedPath := flag.String("folded", "", "write folded stacks (flamegraph.pl/speedscope input) here")
	weight := flag.String("weight", "auto", "weight for folded/top views: cycles, energy or auto")
	topN := flag.Int("top", 15, "rows in the top table")
	title := flag.String("title", "mobilesec run report", "report title")
	appendHistory := flag.Bool("append-history", false, "append this run's record to the -history file")
	seed := flag.String("seed", "", "workload seed recorded in the history entry")
	commit := flag.String("commit", "", "commit recorded in the history entry (default: git HEAD)")
	flag.Parse()

	if err := run(profiles, dtraces, *metricsPath, *journalPath, *seriesPath, *historyPath, *htmlPath,
		*foldedPath, *weight, *topN, *title, *appendHistory, *seed, *commit); err != nil {
		fmt.Fprintln(os.Stderr, "msreport:", err)
		os.Exit(1)
	}
}

func run(profilePaths, dtracePaths []string, metricsPath, journalPath, seriesPath, historyPath, htmlPath,
	foldedPath, weight string, topN int, title string, appendHistory bool, seed, commit string) error {
	if len(profilePaths) == 0 && len(dtracePaths) == 0 && metricsPath == "" && journalPath == "" &&
		seriesPath == "" && historyPath == "" {
		return fmt.Errorf("nothing to report: give at least one of -profile, -metrics, -dtrace, -journal, -series, -history")
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

	var snap *obs.Snapshot
	if metricsPath != "" {
		blob, err := os.ReadFile(metricsPath)
		if err != nil {
			return err
		}
		snap = &obs.Snapshot{}
		if err := json.Unmarshal(blob, snap); err != nil {
			return fmt.Errorf("%s: %w", metricsPath, err)
		}
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

	var jevents []journal.Event
	jskipped := 0
	if journalPath != "" {
		var err error
		jevents, jskipped, err = journal.LoadFile(journalPath)
		if err != nil {
			return err
		}
		if jskipped > 0 {
			fmt.Fprintf(os.Stderr, "msreport: %s: skipped %d malformed journal line(s)\n", journalPath, jskipped)
		}
	}

	var windows []obs.SeriesWindow
	if seriesPath != "" {
		var err error
		windows, err = obs.ReadSeries(seriesPath)
		if err != nil {
			return err
		}
	}

	if appendHistory {
		if historyPath == "" {
			return fmt.Errorf("-append-history needs -history")
		}
		if merged == nil {
			return fmt.Errorf("-append-history needs at least one -profile")
		}
		if commit == "" {
			commit = history.Commit()
		}
		if err := history.AppendUnique(historyPath, historyRecord(merged, profilePaths, seed, commit)); err != nil {
			return err
		}
	}

	var records []history.Record
	if historyPath != "" {
		var err error
		var skipped int
		records, skipped, err = history.Load(historyPath)
		if err != nil {
			return err
		}
		if skipped > 0 {
			fmt.Fprintf(os.Stderr, "msreport: %s: skipped %d malformed history record(s)\n", historyPath, skipped)
		}
	}

	by := prof.Cycles
	if merged != nil {
		var err error
		by, err = prof.ParseWeight(weight, merged)
		if err != nil {
			return err
		}
	}

	if htmlPath != "" {
		f, err := os.Create(htmlPath)
		if err != nil {
			return err
		}
		werr := report.HTML(f, report.Data{
			Title:          title,
			Profile:        merged,
			Metrics:        snap,
			Spans:          spans,
			SpansSkipped:   spansSkipped,
			Journal:        jevents,
			JournalSkipped: jskipped,
			Series:         windows,
			History:        records,
			TopN:           topN,
		})
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
	}

	if foldedPath != "" {
		if merged == nil {
			return fmt.Errorf("-folded needs at least one -profile")
		}
		f, err := os.Create(foldedPath)
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
		fmt.Printf("profile: %d frames, %d instr, %d µJ (top by %s)\n",
			len(merged.Frames), cycles, uj, by)
		if err := merged.WriteTop(os.Stdout, by, topN); err != nil {
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
		fmt.Printf("dtrace: traces=%d spans=%d merged=%d coverage_ge95=%d min_coverage=%.3f\n",
			len(trees), len(spans), nMerged, covered, minCov)
		fmt.Println("critical path (self-time by span kind):")
		for _, e := range obs.CritTop(trees, topN) {
			fmt.Printf("  %10d µs  %6d×  %s\n", e.SelfUS, e.Count, e.Key)
		}
	}
	return nil
}

// historyRecord summarizes the merged profile for the record book:
// totals as headline figures plus per-top-level-frame energy.
func historyRecord(p *prof.Profile, inputs []string, seed, commit string) history.Record {
	cycles, uj := p.Totals()
	layers := map[string]int64{}
	for _, f := range p.Frames {
		top := f.Path
		if i := strings.IndexByte(top, '/'); i >= 0 {
			top = top[:i]
		}
		layers[top] += f.EnergyUJ
	}
	for k, v := range layers {
		if v == 0 {
			delete(layers, k)
		}
	}
	sorted := append([]string{}, inputs...)
	sort.Strings(sorted)
	r := history.Record{
		Date:        history.Today(),
		Source:      "msreport",
		Commit:      commit,
		GoVersion:   p.GoVersion,
		Seed:        seed,
		Fingerprint: history.Fingerprint(sorted...),
		Headline: map[string]float64{
			"profile_instr":     float64(cycles),
			"profile_energy_uj": float64(uj),
		},
	}
	if len(layers) > 0 {
		r.LayerEnergyUJ = layers
	}
	return r
}
