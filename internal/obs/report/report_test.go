package report

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/obs/prof"
)

func fullData() Data {
	return Data{
		Title: "fig4 run",
		Profile: &prof.Profile{Frames: []prof.FrameValue{
			{Path: "core.BatteryFigure/mp.ModExpWindow", EnergyUJ: 14_000_000_000, Cycles: 47_000_000},
			{Path: "core.BatteryFigure/radio.txrx", EnergyUJ: 38_000_000_000},
		}},
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
	for _, absent := range []string{"Energy / cycle profile", "Distributed traces"} {
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
