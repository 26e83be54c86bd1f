// Package report renders the observability layer's run artifacts —
// metrics snapshots, span waterfalls, energy/cycle profiles and
// cross-run history — into a single self-contained HTML document:
// inline CSS, inline SVG flame graphs and sparklines, zero external
// assets, zero scripts. The output is deterministic for deterministic
// inputs (everything is sorted, nothing reads a clock), so CI can
// byte-compare reports across sweep worker counts.
package report

import (
	"fmt"
	"html"
	"io"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/obs/history"
	"repro/internal/obs/journal"
	"repro/internal/obs/prof"
)

// Data is everything a report can include; nil/empty sections are
// omitted from the document.
type Data struct {
	Title   string
	Profile *prof.Profile
	Metrics *obs.Snapshot
	// Spans holds distributed-trace span records (the -dtrace JSONL,
	// possibly merged from several processes); SpansSkipped counts
	// malformed lines the loader dropped.
	Spans        []obs.SpanRec
	SpansSkipped int
	// Journal is a run's structured event journal (the -journal JSONL);
	// JournalSkipped counts lines the loader could not parse.
	Journal        []journal.Event
	JournalSkipped int
	// Series holds the windowed metric time series (the -series JSONL);
	// the timeline panel shades windows where an SLO rule fired.
	Series  []obs.SeriesWindow
	History []history.Record
	TopN    int // rows per top table (default 15)
}

// HTML writes the full report document.
func HTML(w io.Writer, d Data) error {
	if d.TopN <= 0 {
		d.TopN = 15
	}
	title := d.Title
	if title == "" {
		title = "mobilesec run report"
	}
	var b strings.Builder
	b.WriteString("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n")
	fmt.Fprintf(&b, "<title>%s</title>\n", html.EscapeString(title))
	b.WriteString("<style>\n" + css + "</style>\n</head>\n<body>\n")
	fmt.Fprintf(&b, "<h1>%s</h1>\n", html.EscapeString(title))

	if d.Profile != nil {
		writeProfileSection(&b, d.Profile, d.TopN)
	}
	if d.Metrics != nil {
		writeMetricsSection(&b, d.Metrics)
	}
	if len(d.Spans) > 0 || d.SpansSkipped > 0 {
		writeSpanSection(&b, d.Spans, d.SpansSkipped, d.TopN)
	}
	if len(d.Series) > 0 {
		writeSeriesSection(&b, d.Series, d.Journal)
	}
	if len(d.Journal) > 0 || d.JournalSkipped > 0 {
		writeJournalSection(&b, d.Journal, d.JournalSkipped)
	}
	if len(d.History) > 0 {
		writeHistorySection(&b, d.History)
	}
	b.WriteString("</body>\n</html>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

const css = `body{font-family:-apple-system,"Segoe UI",Roboto,sans-serif;margin:2em auto;max-width:75em;padding:0 1em;color:#1a1a2e;background:#fafafa}
h1{font-size:1.5em;border-bottom:2px solid #2b6cb0;padding-bottom:.3em}
h2{font-size:1.15em;margin-top:2em;color:#2b6cb0}
h3{font-size:1em;margin-bottom:.3em}
table{border-collapse:collapse;margin:.6em 0;font-size:.85em}
th,td{border:1px solid #d0d7de;padding:.25em .6em;text-align:right}
th{background:#eef2f6}
td:first-child,th:first-child{text-align:left}
svg{display:block;margin:.4em 0}
svg text{font-family:ui-monospace,Menlo,monospace}
.note{color:#57606a;font-size:.85em}
.flame rect:hover{stroke:#1a1a2e;stroke-width:1}
`

// ---- profile ----------------------------------------------------------

// fnode is a flame-graph tree node rebuilt from a Profile's flat
// frames.
type fnode struct {
	name     string
	self     prof.FrameValue
	children map[string]*fnode
	order    []string // child names, sorted
	cum      map[prof.Weight]int64
}

func newFnode(name string) *fnode {
	return &fnode{name: name, children: map[string]*fnode{}, cum: map[prof.Weight]int64{}}
}

func buildTree(p *prof.Profile) *fnode {
	root := newFnode("all")
	for _, f := range p.Frames {
		n := root
		for _, part := range strings.Split(f.Path, "/") {
			c, ok := n.children[part]
			if !ok {
				c = newFnode(part)
				n.children[part] = c
				n.order = append(n.order, part)
				sort.Strings(n.order)
			}
			n = c
		}
		n.self.Cycles += f.Cycles
		n.self.EnergyUJ += f.EnergyUJ
	}
	var fill func(n *fnode) (cycles, uj int64)
	fill = func(n *fnode) (int64, int64) {
		cycles, uj := n.self.Cycles, n.self.EnergyUJ
		for _, name := range n.order {
			c, u := fill(n.children[name])
			cycles += c
			uj += u
		}
		n.cum[prof.Cycles], n.cum[prof.Energy] = cycles, uj
		return cycles, uj
	}
	fill(root)
	return root
}

func depth(n *fnode) int {
	d := 0
	for _, name := range n.order {
		if c := depth(n.children[name]); c > d {
			d = c
		}
	}
	return d + 1
}

// palette cycles a fixed warm ramp; the pick is a stable hash of the
// frame name so the same kernel keeps its color across reports.
var palette = []string{
	"#d9534f", "#e0703e", "#e68a33", "#eba42c", "#efbd2e",
	"#c8553d", "#b3402e", "#e06a50", "#d98243", "#c96f2f",
}

func frameColor(name string) string {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619
	}
	return palette[h%uint32(len(palette))]
}

func weightLabel(by prof.Weight) string {
	if by == prof.Energy {
		return "energy (µJ)"
	}
	return "cycles (modeled instructions)"
}

func formatWeight(v int64, by prof.Weight) string {
	if by == prof.Energy {
		return fmt.Sprintf("%d µJ", v)
	}
	return fmt.Sprintf("%d instr", v)
}

// flameSVG renders the icicle-style flame graph for one weight: root
// row on top, each child's width proportional to its cumulative
// weight.
func flameSVG(root *fnode, by prof.Weight) string {
	const width, rowH = 1180.0, 19.0
	total := root.cum[by]
	if total <= 0 {
		return ""
	}
	rows := depth(root)
	var b strings.Builder
	fmt.Fprintf(&b, "<svg class=\"flame\" viewBox=\"0 0 %.0f %.0f\" width=\"100%%\" role=\"img\">\n",
		width, rowH*float64(rows)+2)
	var emit func(n *fnode, path string, x float64, level int)
	emit = func(n *fnode, path string, x float64, level int) {
		w := float64(n.cum[by]) / float64(total) * width
		if w < 0.3 {
			return
		}
		y := float64(level) * rowH
		pct := float64(n.cum[by]) / float64(total) * 100
		fmt.Fprintf(&b, "<g><rect x=\"%.2f\" y=\"%.2f\" width=\"%.2f\" height=\"%.0f\" fill=\"%s\" rx=\"1\"/>",
			x, y+1, w, rowH-2, frameColor(n.name))
		fmt.Fprintf(&b, "<title>%s — %s (%.1f%% cum)</title>",
			html.EscapeString(path), formatWeight(n.cum[by], by), pct)
		if w > 45 {
			label := n.name
			if max := int(w / 7.2); len(label) > max && max > 1 {
				label = label[:max-1] + "…"
			}
			fmt.Fprintf(&b, "<text x=\"%.2f\" y=\"%.2f\" font-size=\"11\" fill=\"#fff\">%s</text>",
				x+3, y+rowH-6, html.EscapeString(label))
		}
		b.WriteString("</g>\n")
		cx := x
		for _, name := range n.order {
			c := n.children[name]
			emit(c, path+"/"+c.name, cx, level+1)
			cx += float64(c.cum[by]) / float64(total) * width
		}
	}
	emit(root, "all", 0, 0)
	b.WriteString("</svg>\n")
	return b.String()
}

func writeProfileSection(b *strings.Builder, p *prof.Profile, topN int) {
	cycles, uj := p.Totals()
	b.WriteString("<h2>Energy / cycle profile</h2>\n")
	fmt.Fprintf(b, "<p class=\"note\">%d frames; %d modeled instructions, %d µJ modeled energy. "+
		"Widths are cumulative weight; hover a frame for its full stack path.</p>\n",
		len(p.Frames), cycles, uj)
	root := buildTree(p)
	for _, by := range []prof.Weight{prof.Energy, prof.Cycles} {
		if root.cum[by] <= 0 {
			continue
		}
		fmt.Fprintf(b, "<h3>Flame graph — %s</h3>\n", weightLabel(by))
		b.WriteString(flameSVG(root, by))
		writeTopTable(b, p, by, topN)
	}
}

func writeTopTable(b *strings.Builder, p *prof.Profile, by prof.Weight, topN int) {
	rows := p.Top(by)
	if len(rows) > topN {
		rows = rows[:topN]
	}
	unit := "instr"
	if by == prof.Energy {
		unit = "µJ"
	}
	fmt.Fprintf(b, "<table><tr><th>frame</th><th>flat %s</th><th>cum %s</th><th>cum%%</th></tr>\n", unit, unit)
	for _, r := range rows {
		flat, cum := r.FlatCycles, r.CumCycles
		if by == prof.Energy {
			flat, cum = r.FlatUJ, r.CumUJ
		}
		fmt.Fprintf(b, "<tr><td>%s</td><td>%d</td><td>%d</td><td>%.1f%%</td></tr>\n",
			html.EscapeString(r.Name), flat, cum, r.CumFraction*100)
	}
	b.WriteString("</table>\n")
}

// ---- metrics ----------------------------------------------------------

func writeMetricsSection(b *strings.Builder, s *obs.Snapshot) {
	b.WriteString("<h2>Metric snapshot</h2>\n")
	if s.DTrace != nil {
		fmt.Fprintf(b, "<p class=\"note\">distributed-span ring: %d recorded, %d dropped (capacity %d)</p>\n",
			s.DTrace.Recorded, s.DTrace.Dropped, s.DTrace.Capacity)
	}
	if len(s.Counters) > 0 {
		b.WriteString("<h3>Counters</h3>\n<table><tr><th>counter</th><th>value</th></tr>\n")
		for _, c := range s.Counters {
			fmt.Fprintf(b, "<tr><td>%s</td><td>%d</td></tr>\n", html.EscapeString(c.Name), c.Value)
		}
		b.WriteString("</table>\n")
	}
	if len(s.Gauges) > 0 {
		b.WriteString("<h3>Gauges</h3>\n<table><tr><th>gauge</th><th>value</th></tr>\n")
		for _, g := range s.Gauges {
			fmt.Fprintf(b, "<tr><td>%s</td><td>%g</td></tr>\n", html.EscapeString(g.Name), g.Value)
		}
		b.WriteString("</table>\n")
	}
	if len(s.Histograms) > 0 {
		anyEx := false
		for _, h := range s.Histograms {
			if len(h.Exemplars) > 0 {
				anyEx = true
				break
			}
		}
		b.WriteString("<h3>Histograms</h3>\n<table><tr><th>histogram</th><th>count</th><th>sum</th><th>mean</th><th>p50</th><th>p95</th><th>p99</th>")
		if anyEx {
			b.WriteString("<th>exemplar (slowest bucket)</th>")
		}
		b.WriteString("</tr>\n")
		for _, h := range s.Histograms {
			mean := 0.0
			if h.Count > 0 {
				mean = float64(h.Sum) / float64(h.Count)
			}
			fmt.Fprintf(b, "<tr><td>%s</td><td>%d</td><td>%d</td><td>%.1f</td><td>%d</td><td>%d</td><td>%d</td>",
				html.EscapeString(h.Name), h.Count, h.Sum, mean, h.P50, h.P95, h.P99)
			if anyEx {
				// The exemplar from the highest populated bucket is a trace
				// ID to pull up in the waterfall: a worst-case session by
				// construction.
				ex := ""
				for _, e := range h.Exemplars {
					if e != "" {
						ex = e
					}
				}
				fmt.Fprintf(b, "<td><code>%s</code></td>", html.EscapeString(ex))
			}
			b.WriteString("</tr>\n")
		}
		b.WriteString("</table>\n")
	}
}

// ---- time series -------------------------------------------------------

// writeSeriesSection renders the windowed metric timeline: one
// sparkline row per metric across all windows, with the windows where
// an SLO rule fired shaded red so a burn that self-healed before the
// run ended is still visible at a glance.
func writeSeriesSection(b *strings.Builder, windows []obs.SeriesWindow, events []journal.Event) {
	b.WriteString("<h2>Metric timeline</h2>\n")
	fmt.Fprintf(b, "<p class=\"note\">%d windows (t=%d…%d). Counters plot per-window deltas, "+
		"gauges their end-of-window value, histograms the per-window p95. "+
		"Red bands mark windows where an SLO rule fired.</p>\n",
		len(windows), windows[0].T, windows[len(windows)-1].T)

	// Window index of every slo_fired event: during-run firings carry
	// the t of the window that tripped them (end-of-run totals carry
	// t=-1 and shade nothing).
	shaded := make([]bool, len(windows))
	tToIdx := map[int64]int{}
	for i, w := range windows {
		tToIdx[w.T] = i
	}
	anyShade := false
	for _, e := range events {
		if e.Layer != "slo" || e.Name != "slo_fired" {
			continue
		}
		if i, ok := tToIdx[e.TSim]; ok {
			shaded[i] = true
			anyShade = true
		}
	}

	// One value per window per metric; windows that never saw the
	// metric contribute zero (counters/histograms) or carry the last
	// value forward (gauges).
	type row struct {
		name string
		vals []float64
	}
	idx := map[string]int{}
	var rows []row
	at := func(name string) []float64 {
		i, ok := idx[name]
		if !ok {
			i = len(rows)
			idx[name] = i
			rows = append(rows, row{name: name, vals: make([]float64, len(windows))})
		}
		return rows[i].vals
	}
	for wi, w := range windows {
		for _, c := range w.Counters {
			at(c.Name + " Δ")[wi] = float64(c.Value)
		}
		for _, g := range w.Gauges {
			at(g.Name)[wi] = g.Value
		}
		for _, h := range w.Histograms {
			at(h.Name + " p95")[wi] = float64(h.P95)
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })

	const maxRows = 60
	shown := rows
	if len(shown) > maxRows {
		shown = shown[:maxRows]
	}
	b.WriteString("<table><tr><th>metric</th><th>timeline</th><th>min</th><th>max</th><th>last</th></tr>\n")
	for _, r := range shown {
		lo, hi := r.vals[0], r.vals[0]
		for _, v := range r.vals {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		fmt.Fprintf(b, "<tr><td>%s</td><td>%s</td><td>%.4g</td><td>%.4g</td><td>%.4g</td></tr>\n",
			html.EscapeString(r.name), sparklineShaded(r.vals, shaded),
			lo, hi, r.vals[len(r.vals)-1])
	}
	b.WriteString("</table>\n")
	if len(rows) > maxRows {
		fmt.Fprintf(b, "<p class=\"note\">Timeline capped at %d of %d metrics.</p>\n", maxRows, len(rows))
	}
	if anyShade {
		b.WriteString("<p class=\"note\">Shaded windows had at least one SLO firing; see the SLO alert table for the rules.</p>\n")
	}
}

// sparklineShaded is sparkline plus per-window background bands for
// the indices marked in shaded.
func sparklineShaded(values []float64, shaded []bool) string {
	const w, h = 220.0, 26.0
	if len(values) == 0 {
		return ""
	}
	lo, hi := values[0], values[0]
	for _, v := range values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	span := hi - lo
	var b strings.Builder
	fmt.Fprintf(&b, "<svg viewBox=\"0 0 %.0f %.0f\" width=\"%.0f\" height=\"%.0f\" style=\"display:inline-block;vertical-align:middle\">", w, h, w, h)
	band := w / float64(len(values))
	for i, on := range shaded {
		if !on || i >= len(values) {
			continue
		}
		fmt.Fprintf(&b, "<rect x=\"%.1f\" y=\"0\" width=\"%.1f\" height=\"%.0f\" fill=\"#fbd5d5\"/>",
			band*float64(i), band, h)
	}
	var pts []string
	for i, v := range values {
		x := w * float64(i) / float64(max(len(values)-1, 1))
		y := h / 2
		if span > 0 {
			y = h - 3 - (v-lo)/span*(h-6)
		}
		pts = append(pts, fmt.Sprintf("%.1f,%.1f", x, y))
	}
	if len(values) == 1 {
		fmt.Fprintf(&b, "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"2.5\" fill=\"#2b6cb0\"/>", w/2, h/2)
	} else {
		fmt.Fprintf(&b, "<polyline points=\"%s\" fill=\"none\" stroke=\"#2b6cb0\" stroke-width=\"1.5\"/>", strings.Join(pts, " "))
		last := strings.Split(pts[len(pts)-1], ",")
		fmt.Fprintf(&b, "<circle cx=\"%s\" cy=\"%s\" r=\"2.5\" fill=\"#d9534f\"/>", last[0], last[1])
	}
	b.WriteString("</svg>")
	return b.String()
}

// ---- journal ----------------------------------------------------------

// writeJournalSection renders the structured event journal: the SLO
// alert table first (the reason most readers open the report), then a
// per-layer breakdown and an excerpt of the warn-and-above events.
func writeJournalSection(b *strings.Builder, events []journal.Event, skipped int) {
	b.WriteString("<h2>Event journal</h2>\n")
	fmt.Fprintf(b, "<p class=\"note\">%d events.", len(events))
	if skipped > 0 {
		fmt.Fprintf(b, " <strong>%d malformed line(s) skipped</strong> while loading.", skipped)
	}
	b.WriteString("</p>\n")

	// SLO alert table, from slo_fired events.
	var fired []journal.Event
	for _, e := range events {
		if e.Layer == "slo" && e.Name == "slo_fired" {
			fired = append(fired, e)
		}
	}
	b.WriteString("<h3>SLO alerts</h3>\n")
	if len(fired) == 0 {
		b.WriteString("<p class=\"note\">No SLO rules fired.</p>\n")
	} else {
		b.WriteString("<table><tr><th>rule</th><th>severity</th><th>metric</th><th>value</th><th>op</th><th>threshold</th><th>reason</th></tr>\n")
		for _, e := range fired {
			fmt.Fprintf(b, "<tr><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>\n",
				html.EscapeString(e.Get("rule")), html.EscapeString(e.Get("severity")),
				html.EscapeString(e.Get("metric")), html.EscapeString(e.Get("value")),
				html.EscapeString(e.Get("op")), html.EscapeString(e.Get("threshold")),
				html.EscapeString(e.Get("reason")))
		}
		b.WriteString("</table>\n")
	}

	// Per-layer, per-level counts.
	type layerAgg struct{ counts [4]int }
	layers := map[string]*layerAgg{}
	var names []string
	for _, e := range events {
		la, ok := layers[e.Layer]
		if !ok {
			la = &layerAgg{}
			layers[e.Layer] = la
			names = append(names, e.Layer)
		}
		if e.Level >= journal.LevelDebug && e.Level <= journal.LevelCrit {
			la.counts[e.Level]++
		}
	}
	sort.Strings(names)
	if len(names) > 0 {
		b.WriteString("<h3>Events by layer</h3>\n<table><tr><th>layer</th><th>debug</th><th>info</th><th>warn</th><th>crit</th></tr>\n")
		for _, name := range names {
			la := layers[name]
			fmt.Fprintf(b, "<tr><td>%s</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td></tr>\n",
				html.EscapeString(name),
				la.counts[journal.LevelDebug], la.counts[journal.LevelInfo],
				la.counts[journal.LevelWarn], la.counts[journal.LevelCrit])
		}
		b.WriteString("</table>\n")
	}

	// Excerpt: warn-and-above events (already slo-tabled firings included
	// for context), capped so a noisy run cannot bloat the document.
	const maxExcerpt = 50
	var lines []string
	for _, e := range events {
		if e.Level < journal.LevelWarn {
			continue
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "[%s] %s/%s t=%d", e.Level, e.Layer, e.Name, e.TSim)
		for _, f := range e.Fields {
			fmt.Fprintf(&sb, " %s=%s", f.K, e.Get(f.K))
		}
		lines = append(lines, sb.String())
		if len(lines) == maxExcerpt {
			break
		}
	}
	if len(lines) > 0 {
		b.WriteString("<h3>Warnings and criticals</h3>\n<table><tr><th>event</th></tr>\n")
		for _, l := range lines {
			fmt.Fprintf(b, "<tr><td>%s</td></tr>\n", html.EscapeString(l))
		}
		b.WriteString("</table>\n")
		if len(lines) == maxExcerpt {
			fmt.Fprintf(b, "<p class=\"note\">Excerpt capped at %d events; see the journal file for the rest.</p>\n", maxExcerpt)
		}
	}
}

// ---- history ----------------------------------------------------------

// sparkline renders values as a small inline polyline, oldest first.
func sparkline(values []float64) string {
	const w, h = 150.0, 26.0
	if len(values) == 0 {
		return ""
	}
	lo, hi := values[0], values[0]
	for _, v := range values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	span := hi - lo
	var pts []string
	for i, v := range values {
		x := w * float64(i) / float64(max(len(values)-1, 1))
		y := h / 2
		if span > 0 {
			y = h - 3 - (v-lo)/span*(h-6)
		}
		pts = append(pts, fmt.Sprintf("%.1f,%.1f", x, y))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "<svg viewBox=\"0 0 %.0f %.0f\" width=\"%.0f\" height=\"%.0f\" style=\"display:inline-block;vertical-align:middle\">", w, h, w, h)
	if len(values) == 1 {
		fmt.Fprintf(&b, "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"2.5\" fill=\"#2b6cb0\"/>", w/2, h/2)
	} else {
		fmt.Fprintf(&b, "<polyline points=\"%s\" fill=\"none\" stroke=\"#2b6cb0\" stroke-width=\"1.5\"/>", strings.Join(pts, " "))
		last := strings.Split(pts[len(pts)-1], ",")
		fmt.Fprintf(&b, "<circle cx=\"%s\" cy=\"%s\" r=\"2.5\" fill=\"#d9534f\"/>", last[0], last[1])
	}
	b.WriteString("</svg>")
	return b.String()
}

func writeHistorySection(b *strings.Builder, records []history.Record) {
	b.WriteString("<h2>Cross-run history</h2>\n")
	fmt.Fprintf(b, "<p class=\"note\">%d recorded runs (oldest first). Trends plot each headline figure across runs.</p>\n", len(records))

	// Trend table: one row per headline key seen anywhere in history.
	keys := map[string]bool{}
	for _, r := range records {
		for k := range r.Headline {
			keys[k] = true
		}
	}
	var names []string
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	if len(names) > 0 {
		b.WriteString("<h3>Headline trends</h3>\n<table><tr><th>figure</th><th>trend</th><th>first</th><th>last</th><th>Δ</th></tr>\n")
		for _, k := range names {
			var vals []float64
			for _, r := range records {
				if v, ok := r.Headline[k]; ok {
					vals = append(vals, v)
				}
			}
			if len(vals) == 0 {
				continue
			}
			first, last := vals[0], vals[len(vals)-1]
			delta := "–"
			if first != 0 {
				delta = fmt.Sprintf("%+.1f%%", (last-first)/first*100)
			}
			fmt.Fprintf(b, "<tr><td>%s</td><td>%s</td><td>%.4g</td><td>%.4g</td><td>%s</td></tr>\n",
				html.EscapeString(k), sparkline(vals), first, last, delta)
		}
		b.WriteString("</table>\n")
	}

	// Per-layer energy trends, when any record attributes them.
	layerKeys := map[string]bool{}
	for _, r := range records {
		for k := range r.LayerEnergyUJ {
			layerKeys[k] = true
		}
	}
	var layers []string
	for k := range layerKeys {
		layers = append(layers, k)
	}
	sort.Strings(layers)
	if len(layers) > 0 {
		b.WriteString("<h3>Per-layer energy (µJ) trends</h3>\n<table><tr><th>layer</th><th>trend</th><th>last µJ</th></tr>\n")
		for _, k := range layers {
			var vals []float64
			for _, r := range records {
				if v, ok := r.LayerEnergyUJ[k]; ok {
					vals = append(vals, float64(v))
				}
			}
			if len(vals) == 0 {
				continue
			}
			fmt.Fprintf(b, "<tr><td>%s</td><td>%s</td><td>%.0f</td></tr>\n",
				html.EscapeString(k), sparkline(vals), vals[len(vals)-1])
		}
		b.WriteString("</table>\n")
	}

	b.WriteString("<h3>Runs</h3>\n<table><tr><th>date</th><th>source</th><th>commit</th><th>go</th><th>seed</th><th>config</th></tr>\n")
	for _, r := range records {
		fmt.Fprintf(b, "<tr><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>\n",
			html.EscapeString(r.Date), html.EscapeString(r.Source), html.EscapeString(r.Commit),
			html.EscapeString(r.GoVersion), html.EscapeString(r.Seed), html.EscapeString(r.Fingerprint))
	}
	b.WriteString("</table>\n")
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
