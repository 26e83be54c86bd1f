package report

import (
	"fmt"
	"html"
	"strings"

	"repro/internal/obs"
)

// Distributed-trace rendering: a per-session span waterfall plus the
// critical-path attribution table. Everything here is deterministic for
// deterministic inputs — traces arrive pre-sorted from BuildTraces,
// children by ordinal — so CI can byte-compare the panel across sweep
// worker counts (canonical traces carry no timings and render as
// structure lists instead of timed bars).

// maxWaterfalls caps how many traces get a full waterfall; the
// critical-path table still aggregates every trace.
const maxWaterfalls = 8

// spanPalette colors spans by layer: cool tones for transport, warm for
// waiting, so a waterfall reads at a glance.
var spanPalette = map[string]string{
	"load":    "#2b6cb0",
	"gateway": "#38761d",
	"wtls":    "#7a5195",
	"arq":     "#d9534f",
}

func spanColor(layer string) string {
	if c, ok := spanPalette[layer]; ok {
		return c
	}
	return "#57606a"
}

func writeSpanSection(b *strings.Builder, spans []obs.SpanRec, skipped int) {
	trees := obs.BuildTraces(spans)
	b.WriteString("<h2>Distributed traces</h2>\n")
	merged := 0
	for i := range trees {
		if trees[i].Merged {
			merged++
		}
	}
	fmt.Fprintf(b, "<p class=\"note\">%d trace(s) over %d span(s); %d merged across processes.",
		len(trees), len(spans), merged)
	if skipped > 0 {
		fmt.Fprintf(b, " <strong>%d malformed line(s) skipped</strong> while loading.", skipped)
	}
	b.WriteString("</p>\n")
	if len(trees) == 0 {
		return
	}

	writeCritPathTable(b, trees)

	shown := len(trees)
	if shown > maxWaterfalls {
		shown = maxWaterfalls
	}
	for i := 0; i < shown; i++ {
		writeWaterfall(b, &trees[i])
	}
	if shown < len(trees) {
		fmt.Fprintf(b, "<p class=\"note\">Waterfalls capped at the %d longest of %d traces; the critical-path table covers all of them.</p>\n",
			shown, len(trees))
	}
}

// writeCritPathTable renders where the sessions' time went: total
// self-time per span kind across every loaded trace, descending.
func writeCritPathTable(b *strings.Builder, trees []obs.TraceTree) {
	rows := obs.CritTop(trees, topN)
	var total int64
	for _, e := range rows {
		total += e.SelfUS
	}
	b.WriteString("<h3>Critical path — self-time by span kind</h3>\n")
	if total == 0 {
		b.WriteString("<p class=\"note\">No timings (canonical trace): structure only.</p>\n")
	}
	b.WriteString("<table><tr><th>span kind</th><th>self µs</th><th>share</th><th>count</th></tr>\n")
	for _, e := range rows {
		share := "–"
		if total > 0 {
			share = fmt.Sprintf("%.1f%%", float64(e.SelfUS)/float64(total)*100)
		}
		fmt.Fprintf(b, "<tr><td>%s</td><td>%d</td><td>%s</td><td>%d</td></tr>\n",
			html.EscapeString(e.Key), e.SelfUS, share, e.Count)
	}
	b.WriteString("</table>\n")
}

// flattenTree lists a trace's nodes in DFS order (primary root's
// subtree first), the order the waterfall draws rows.
func flattenTree(t *obs.TraceTree) []*obs.SpanNode {
	var out []*obs.SpanNode
	var walk func(n *obs.SpanNode)
	walk = func(n *obs.SpanNode) {
		out = append(out, n)
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, r := range t.Roots {
		walk(r)
	}
	return out
}

func writeWaterfall(b *strings.Builder, t *obs.TraceTree) {
	fmt.Fprintf(b, "<h3>Trace <code>%s</code></h3>\n", obs.TraceHex(t.Trace))
	fmt.Fprintf(b, "<p class=\"note\">%d spans, %s, root %d µs, coverage %.1f%%</p>\n",
		t.Spans, html.EscapeString(strings.Join(t.Procs, "+")), t.DurUS, t.Coverage*100)
	nodes := flattenTree(t)
	if t.DurUS <= 0 {
		// Canonical (or zero-length) trace: no timebase to draw bars on;
		// the indented structure is still byte-stable across runs.
		b.WriteString("<table><tr><th>span</th><th>proc</th><th>n</th></tr>\n")
		for _, n := range nodes {
			fmt.Fprintf(b, "<tr><td>%s%s.%s</td><td>%s</td><td>%d</td></tr>\n",
				strings.Repeat("&nbsp;&nbsp;", n.Depth),
				html.EscapeString(n.Rec.Layer), html.EscapeString(n.Rec.Name),
				html.EscapeString(n.Rec.Proc), n.Rec.N)
		}
		b.WriteString("</table>\n")
		return
	}

	// Time axis: the primary root's aligned interval bounds the canvas;
	// remote subtrees were snapped onto it by BuildTraces.
	lo := nodes[0].Rec.StartUS + nodes[0].AlignUS
	hi := lo + nodes[0].Rec.DurUS
	for _, n := range nodes {
		a := n.Rec.StartUS + n.AlignUS
		if a < lo {
			lo = a
		}
		if e := a + n.Rec.DurUS; e > hi {
			hi = e
		}
	}
	span := hi - lo
	if span <= 0 {
		span = 1
	}
	const width, rowH, labelW = 1180.0, 17.0, 260.0
	barW := width - labelW
	fmt.Fprintf(b, "<svg class=\"flame\" viewBox=\"0 0 %.0f %.0f\" width=\"100%%\" role=\"img\">\n",
		width, rowH*float64(len(nodes))+2)
	for i, n := range nodes {
		y := float64(i) * rowH
		a := n.Rec.StartUS + n.AlignUS
		x := labelW + float64(a-lo)/float64(span)*barW
		w := float64(n.Rec.DurUS) / float64(span) * barW
		if w < 1 {
			w = 1
		}
		label := fmt.Sprintf("%s%s.%s", strings.Repeat("  ", n.Depth), n.Rec.Layer, n.Rec.Name)
		fmt.Fprintf(b, "<g><text x=\"2\" y=\"%.2f\" font-size=\"11\" fill=\"#1a1a2e\">%s</text>",
			y+rowH-5, html.EscapeString(label))
		fmt.Fprintf(b, "<rect x=\"%.2f\" y=\"%.2f\" width=\"%.2f\" height=\"%.0f\" fill=\"%s\" rx=\"1\"/>",
			x, y+2, w, rowH-4, spanColor(n.Rec.Layer))
		fmt.Fprintf(b, "<title>%s — start %d µs, dur %d µs, self %d µs, n=%d (span %s)</title></g>\n",
			html.EscapeString(critLabel(n)), a-lo, n.Rec.DurUS, n.SelfUS, n.Rec.N,
			obs.TraceHex(n.Rec.Span))
	}
	b.WriteString("</svg>\n")
}

func critLabel(n *obs.SpanNode) string {
	k := n.Rec.Layer + "." + n.Rec.Name
	if n.Rec.Proc != "" {
		k = n.Rec.Proc + "/" + k
	}
	return k
}
