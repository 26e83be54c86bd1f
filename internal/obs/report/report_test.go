package report

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/history"
	"repro/internal/obs/journal"
	"repro/internal/obs/prof"
)

func fullData() Data {
	return Data{
		Title: "fig4 run",
		Profile: &prof.Profile{Frames: []prof.FrameValue{
			{Path: "core.BatteryFigure/mp.ModExpWindow", EnergyUJ: 14_000_000_000, Cycles: 47_000_000},
			{Path: "core.BatteryFigure/radio.txrx", EnergyUJ: 38_000_000_000},
		}},
		Metrics: &obs.Snapshot{
			Counters:   []obs.CounterValue{{Name: "wtls.handshakes", Value: 3}},
			Gauges:     []obs.GaugeValue{{Name: "core.battery_j", Value: 26_000}},
			Histograms: []obs.HistogramValue{{Name: "arq.frame_bytes", Count: 2, Sum: 3000}},
			DTrace:     &obs.TraceStats{Recorded: 10, Dropped: 4, Capacity: 8},
		},
		Journal: []journal.Event{
			{TSim: 20, Level: journal.LevelWarn, Layer: "slo", Name: "slo_fired",
				Fields: []journal.Field{journal.S("rule", "retry-burn"), journal.S("severity", "warn")}},
		},
		Series: []obs.SeriesWindow{
			{I: 0, T: 10,
				Counters: []obs.CounterValue{{Name: "load.retries", Value: 1}},
				Gauges:   []obs.GaugeValue{{Name: "gw.active", Value: 3}},
				Histograms: []obs.SeriesHist{
					{Name: "arq.frame_bytes", Count: 2, Sum: 3000, P50: 1000, P95: 2000, P99: 2000}}},
			{I: 1, T: 20,
				Counters: []obs.CounterValue{{Name: "load.retries", Value: 4}},
				Gauges:   []obs.GaugeValue{{Name: "gw.active", Value: 5}}},
		},
		History: []history.Record{
			{Date: "2026-08-01", Source: "benchreg", Commit: "aaa", GoVersion: "go1.22",
				Headline: map[string]float64{"ModExp512_ns_per_op": 264830}},
			{Date: "2026-08-06", Source: "benchreg", Commit: "bbb", GoVersion: "go1.22",
				Headline: map[string]float64{"ModExp512_ns_per_op": 250000}},
		},
	}
}

func TestHTMLAllSections(t *testing.T) {
	var buf bytes.Buffer
	if err := HTML(&buf, fullData()); err != nil {
		t.Fatal(err)
	}
	doc := buf.String()
	for _, want := range []string{
		"<!DOCTYPE html>",
		"fig4 run",
		"Energy / cycle profile",
		"mp.ModExpWindow",
		"radio.txrx",
		"<svg class=\"flame\"",
		"Metric snapshot",
		"wtls.handshakes",
		"distributed-span ring: 10 recorded, 4 dropped (capacity 8)",
		"Cross-run history",
		"ModExp512_ns_per_op",
		"<polyline",
		"Metric timeline",
		"load.retries Δ",
		"arq.frame_bytes p95",
		"SLO alerts",
		"retry-burn",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// Self-contained: no external fetches, no scripts.
	for _, banned := range []string{"<script", "http://", "https://", "<link", "src="} {
		if strings.Contains(doc, banned) {
			t.Errorf("report is not self-contained: found %q", banned)
		}
	}
}

func TestHTMLDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := HTML(&a, fullData()); err != nil {
		t.Fatal(err)
	}
	if err := HTML(&b, fullData()); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("two renders of the same data differ")
	}
}

func TestHTMLEmptySectionsOmitted(t *testing.T) {
	var buf bytes.Buffer
	if err := HTML(&buf, Data{}); err != nil {
		t.Fatal(err)
	}
	doc := buf.String()
	for _, absent := range []string{"Energy / cycle profile", "Metric snapshot", "Cross-run history"} {
		if strings.Contains(doc, absent) {
			t.Errorf("empty report contains section %q", absent)
		}
	}
	if !strings.Contains(doc, "mobilesec run report") {
		t.Error("default title missing")
	}
}

func TestHTMLEscapesTitles(t *testing.T) {
	var buf bytes.Buffer
	if err := HTML(&buf, Data{Title: "<b>evil</b>"}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "<b>evil</b>") {
		t.Fatal("title not HTML-escaped")
	}
}

func TestFlameWidthsProportional(t *testing.T) {
	p := &prof.Profile{Frames: []prof.FrameValue{
		{Path: "root/a", EnergyUJ: 75},
		{Path: "root/b", EnergyUJ: 25},
	}}
	svg := flameSVG(buildTree(p), prof.Energy)
	// a occupies 75% of 1180 = 885, b 25% = 295.
	if !strings.Contains(svg, "width=\"885.00\"") || !strings.Contains(svg, "width=\"295.00\"") {
		t.Fatalf("flame widths not proportional:\n%s", svg)
	}
}

// TestSeriesShadingMarksFiringWindow pins the SLO shading contract:
// the window whose t matches a firing's t_sim gets a red band, and
// end-of-run firings (t=-1) shade nothing.
func TestSeriesShadingMarksFiringWindow(t *testing.T) {
	windows := []obs.SeriesWindow{
		{I: 0, T: 10, Counters: []obs.CounterValue{{Name: "c", Value: 1}}},
		{I: 1, T: 20, Counters: []obs.CounterValue{{Name: "c", Value: 9}}},
	}
	render := func(events []journal.Event) string {
		var b strings.Builder
		writeSeriesSection(&b, windows, events)
		return b.String()
	}
	fired := render([]journal.Event{
		{TSim: 20, Layer: "slo", Name: "slo_fired", Fields: []journal.Field{journal.S("rule", "r")}},
	})
	if !strings.Contains(fired, "#fbd5d5") {
		t.Fatal("firing at a window t did not shade the timeline")
	}
	if !strings.Contains(fired, "Shaded windows had at least one SLO firing") {
		t.Fatal("shading legend missing")
	}
	endOnly := render([]journal.Event{
		{TSim: -1, Layer: "slo", Name: "slo_fired", Fields: []journal.Field{journal.S("rule", "r")}},
	})
	if strings.Contains(endOnly, "#fbd5d5") {
		t.Fatal("end-of-run firing (t=-1) shaded a window")
	}
	// p50/p95/p99 columns in the snapshot table.
	var b strings.Builder
	writeMetricsSection(&b, &obs.Snapshot{Histograms: []obs.HistogramValue{
		{Name: "h", Count: 3, Sum: 30, P50: 8, P95: 16, P99: 32},
	}})
	doc := b.String()
	for _, want := range []string{"<th>p50</th>", "<td>8</td>", "<td>16</td>", "<td>32</td>"} {
		if !strings.Contains(doc, want) {
			t.Fatalf("histogram table missing %q:\n%s", want, doc)
		}
	}
}

func TestSparklineSinglePoint(t *testing.T) {
	if s := sparkline([]float64{1}); !strings.Contains(s, "<circle") || strings.Contains(s, "<polyline") {
		t.Fatalf("single-point sparkline = %q", s)
	}
	if s := sparkline(nil); s != "" {
		t.Fatalf("empty sparkline = %q", s)
	}
}
