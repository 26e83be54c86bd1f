package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/obs/journal"
)

// sseEvent is one parsed Server-Sent-Events frame.
type sseEvent struct {
	name string
	data string
}

// readSSE parses SSE frames from r and invokes fn for each one. Frames
// are `event:`/`data:` line groups separated by blank lines; multi-line
// data concatenates with newlines, comment lines (leading ':') are
// ignored. Returns nil on EOF.
func readSSE(r io.Reader, fn func(sseEvent)) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var ev sseEvent
	var data []string
	flush := func() {
		if ev.name == "" && len(data) == 0 {
			return
		}
		ev.data = strings.Join(data, "\n")
		fn(ev)
		ev = sseEvent{}
		data = nil
	}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			flush()
		case strings.HasPrefix(line, ":"):
			// comment / keep-alive
		case strings.HasPrefix(line, "event:"):
			ev.name = strings.TrimSpace(line[len("event:"):])
		case strings.HasPrefix(line, "data:"):
			data = append(data, strings.TrimSpace(line[len("data:"):]))
		}
	}
	flush()
	return sc.Err()
}

// view renders the watched tool's event stream as terminal lines: one
// line per journal event at or above the minimum level, ALERT lines for
// fired SLO rules, and a refreshing sweep-progress line.
type view struct {
	w       io.Writer
	min     journal.Level
	verbose bool

	lastProgress string
	intervalMS   float64 // metric push period from the hello frame

	slow     []slowSession // slowest traced sessions seen, descending
	lastSlow string
}

// handle dispatches one SSE frame.
func (v *view) handle(ev sseEvent) {
	switch ev.name {
	case "journal":
		e, err := journal.ParseLine([]byte(ev.data))
		if err != nil {
			fmt.Fprintf(v.w, "mswatch: bad journal line: %v\n", err)
			return
		}
		if line := v.formatJournal(e); line != "" {
			fmt.Fprintln(v.w, line)
		}
		v.trackSlow(e)
	case "metrics":
		if v.verbose {
			fmt.Fprintf(v.w, "metrics %s\n", ev.data)
		}
		if line := v.formatRates(ev.data); line != "" {
			fmt.Fprintln(v.w, line)
		}
	case "hello":
		var h struct {
			IntervalMS float64 `json:"metric_interval_ms"`
		}
		if json.Unmarshal([]byte(ev.data), &h) == nil && h.IntervalMS > 0 {
			v.intervalMS = h.IntervalMS
		}
		if v.verbose {
			fmt.Fprintf(v.w, "connected %s\n", ev.data)
		}
	}
}

// maxRateEntries caps how many metrics one rates line shows; the rest
// collapse into a "+N more" suffix so a busy gateway stays readable.
const maxRateEntries = 6

// formatRates turns one metrics delta frame into a live rates line:
// counter deltas scaled to per-second by the push interval from the
// hello frame, gauges at their current value. Entries render in sorted
// name order, counters first.
func (v *view) formatRates(data string) string {
	var d struct {
		Counters  map[string]int64   `json:"counters"`
		Gauges    map[string]float64 `json:"gauges"`
		Truncated int                `json:"truncated"`
	}
	if err := json.Unmarshal([]byte(data), &d); err != nil {
		return ""
	}
	perSec := 1.0
	if v.intervalMS > 0 {
		perSec = 1000 / v.intervalMS
	}
	var entries []string
	for _, name := range sortedKeys(d.Counters) {
		entries = append(entries, fmt.Sprintf("%s %.3g/s", name, float64(d.Counters[name])*perSec))
	}
	for _, name := range sortedKeys(d.Gauges) {
		entries = append(entries, fmt.Sprintf("%s=%g", name, d.Gauges[name]))
	}
	if len(entries) == 0 {
		return ""
	}
	extra := d.Truncated
	if len(entries) > maxRateEntries {
		extra += len(entries) - maxRateEntries
		entries = entries[:maxRateEntries]
	}
	line := "rates: " + strings.Join(entries, ", ")
	if extra > 0 {
		line += fmt.Sprintf(" (+%d more)", extra)
	}
	return line
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// formatJournal renders one journal event, or "" when it is below the
// view's minimum level. SLO firings always render, as ALERT lines.
func (v *view) formatJournal(e journal.Event) string {
	if e.Layer == "slo" && e.Name == "slo_fired" {
		return formatAlert(e)
	}
	if e.Level < v.min {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "[%-5s] %s/%s t=%d", e.Level, e.Layer, e.Name, e.TSim)
	for _, f := range e.Fields {
		b.WriteByte(' ')
		b.WriteString(f.K)
		b.WriteByte('=')
		b.WriteString(e.Get(f.K))
	}
	return b.String()
}

// slowSession is one traced session in the live slowest table: its
// distributed-trace ID (the handle to pull the full waterfall up with
// msreport -dtrace) and its duration.
type slowSession struct {
	trace string
	durUS int64
}

// maxSlow caps the live slowest-sessions table.
const maxSlow = 5

// trackSlow watches wide per-session events that carry a trace_id and
// keeps the slowest ones by duration_us, which client and server events
// both carry, reprinting the table whenever the set changes — so the
// trace IDs worth investigating surface while the run is still going.
func (v *view) trackSlow(e journal.Event) {
	if e.Name != "session" {
		return
	}
	trace := e.Get("trace_id")
	if trace == "" {
		return
	}
	us, err := strconv.ParseInt(e.Get("duration_us"), 10, 64)
	if err != nil {
		return
	}
	v.slow = append(v.slow, slowSession{trace: trace, durUS: us})
	sort.SliceStable(v.slow, func(i, j int) bool { return v.slow[i].durUS > v.slow[j].durUS })
	if len(v.slow) > maxSlow {
		v.slow = v.slow[:maxSlow]
	}
	var parts []string
	for _, s := range v.slow {
		parts = append(parts, fmt.Sprintf("%s %dµs", s.trace, s.durUS))
	}
	line := "slowest traced sessions: " + strings.Join(parts, ", ")
	if line != v.lastSlow {
		v.lastSlow = line
		fmt.Fprintln(v.w, line)
	}
}

// formatAlert renders a fired SLO rule.
func formatAlert(e journal.Event) string {
	line := fmt.Sprintf("ALERT [%s] rule=%s %s = %s %s %s",
		strings.ToUpper(e.Get("severity")), e.Get("rule"),
		e.Get("metric"), e.Get("value"), e.Get("op"), e.Get("threshold"))
	if r := e.Get("reason"); r != "" {
		line += " (" + r + ")"
	}
	return line
}

// progress renders one /progress payload; repeated identical states are
// suppressed so an idle tool doesn't scroll the terminal.
func (v *view) progress(payload []byte) {
	line, err := formatProgress(payload)
	if err != nil || line == "" || line == v.lastProgress {
		return
	}
	v.lastProgress = line
	fmt.Fprintln(v.w, line)
}

// formatProgress turns the /progress JSON into a one-line status, or ""
// when nothing has started yet.
func formatProgress(payload []byte) (string, error) {
	var p obs.Progress
	if err := json.Unmarshal(payload, &p); err != nil {
		return "", fmt.Errorf("mswatch: progress payload: %w", err)
	}
	if p.Total == 0 {
		return "", nil
	}
	name, unit := p.Label, p.Unit
	if name == "" {
		name = fmt.Sprintf("sweep %d", p.Sweep)
	}
	if unit == "" {
		unit = "tasks"
	}
	line := fmt.Sprintf("%s: %d/%d %s (%.1f%%), %d workers",
		name, p.Done, p.Total, unit, 100*float64(p.Done)/float64(p.Total), p.Workers)
	if p.PerSec > 0 {
		line += fmt.Sprintf(", %.0f %s/s", p.PerSec, unit)
	}
	if p.Active && p.ETAMS >= 0 {
		line += fmt.Sprintf(", eta %.1fs", float64(p.ETAMS)/1000)
	}
	if !p.Active {
		line += " [done]"
	}
	return line, nil
}
