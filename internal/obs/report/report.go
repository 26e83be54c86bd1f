// Package report renders the observability layer's run artifacts that
// no other surface draws — energy/cycle profiles and span waterfalls —
// into a single self-contained HTML document: inline CSS, inline SVG
// flame graphs, zero external assets, zero scripts. The output is
// deterministic for deterministic inputs (everything is sorted, nothing
// reads a clock), so CI can byte-compare reports across sweep worker
// counts.
package report

import (
	"fmt"
	"html"
	"io"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/obs/prof"
)

// Data is everything a report can include; nil/empty sections are
// omitted from the document.
type Data struct {
	Title   string
	Profile *prof.Profile
	// Spans holds distributed-trace span records (the -dtrace JSONL,
	// possibly merged from several processes); SpansSkipped counts
	// malformed lines the loader dropped.
	Spans        []obs.SpanRec
	SpansSkipped int
}

// topN is the row count of every top table.
const topN = 15

// HTML writes the full report document.
func HTML(w io.Writer, d Data) error {
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
		writeProfileSection(&b, d.Profile)
	}
	if len(d.Spans) > 0 || d.SpansSkipped > 0 {
		writeSpanSection(&b, d.Spans, d.SpansSkipped)
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

func writeProfileSection(b *strings.Builder, p *prof.Profile) {
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
		writeTopTable(b, p, by)
	}
}

func writeTopTable(b *strings.Builder, p *prof.Profile, by prof.Weight) {
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
