package report

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/obs/history"
	"repro/internal/obs/prof"
)

func fullData() Data {
	return Data{
		Title: "fig4 run",
		Profile: &prof.Profile{Frames: []prof.FrameValue{
			{Path: "core.BatteryFigure/mp.ModExpWindow", EnergyUJ: 14_000_000_000, Cycles: 47_000_000},
			{Path: "core.BatteryFigure/radio.txrx", EnergyUJ: 38_000_000_000},
		}},
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
		"Cross-run history",
		"ModExp512_ns_per_op",
		"<polyline",
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
	for _, absent := range []string{"Energy / cycle profile", "Distributed traces", "Cross-run history"} {
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

func TestSparklineSinglePoint(t *testing.T) {
	if s := sparkline([]float64{1}); !strings.Contains(s, "<circle") || strings.Contains(s, "<polyline") {
		t.Fatalf("single-point sparkline = %q", s)
	}
	if s := sparkline(nil); s != "" {
		t.Fatalf("empty sparkline = %q", s)
	}
}
