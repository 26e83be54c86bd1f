package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Test inputs, one small file per artifact kind msreport reads.
const (
	profileJSON = `{"go_version":"go1.22","frames":[
 {"path":"core.BatteryFigure/mp.ModExpWindow","cycles":4700,"energy_uj":1400},
 {"path":"core.BatteryFigure/radio.txrx","energy_uj":3800}]}`
	// The client half of one session: the handshake and echo children
	// cover the root's full 100 µs.
	clientSpans = `{"trace":"00000000000000a1","span":"0000000000000b01","ord":0,"proc":"msload","layer":"load","name":"session","start_us":0,"dur_us":100}
{"trace":"00000000000000a1","span":"0000000000000b02","parent":"0000000000000b01","ord":0,"proc":"msload","layer":"wtls","name":"handshake_client","start_us":0,"dur_us":60}
{"trace":"00000000000000a1","span":"0000000000000b03","parent":"0000000000000b01","ord":1,"proc":"msload","layer":"load","name":"echo","start_us":60,"dur_us":40}
`
	// The gateway half, parented on the client's handshake span.
	serverSpans = `{"trace":"00000000000000a1","span":"0000000000000c01","parent":"0000000000000b02","ord":0,"proc":"msgateway","layer":"gateway","name":"session","start_us":5000,"dur_us":50}
`
)

// TestRun drives run() as the command line does and checks the HTML
// each input adds and the stdout lines CI parses — the dtrace line
// exactly, since a gate splits it on spaces and "=".
func TestRun(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	profile := write("run.prof.json", profileJSON)
	client := write("load.dtrace.jsonl", clientSpans)
	server := write("gw.dtrace.jsonl", serverSpans)

	cases := []struct {
		name      string
		args      []string
		inHTML    []string // HTML fragments that must appear
		absent    []string // and ones that must not
		stdout    []string // exact stdout lines that must appear
		foldedHas string   // a line the -folded file must hold ("" = no -folded)
	}{{
		name:      "profile",
		args:      []string{"-profile", profile, "-weight", "energy"},
		inHTML:    []string{"<h2>Energy / cycle profile</h2>", "<h3>Flame graph — energy (µJ)</h3>"},
		absent:    []string{"<h2>Distributed traces</h2>"},
		stdout:    []string{"profile: 2 frames, 4700 instr, 5200 µJ (top by energy)"},
		foldedHas: "core.BatteryFigure;radio.txrx 3800",
	}, {
		name:   "dtrace merged",
		args:   []string{"-dtrace", client, "-dtrace", server},
		inHTML: []string{"<h2>Distributed traces</h2>", "<h3>Critical path — self-time by span kind</h3>", "<h3>Trace <code>00000000000000a1</code></h3>"},
		stdout: []string{
			"dtrace: traces=1 spans=4 merged=1 coverage_ge95=1 min_coverage=1.000",
			"critical path (self-time by span kind):",
		},
	}, {
		name:   "dtrace client half",
		args:   []string{"-dtrace", client},
		inHTML: []string{"<h2>Distributed traces</h2>"},
		stdout: []string{"dtrace: traces=1 spans=3 merged=0 coverage_ge95=1 min_coverage=1.000"},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			html := filepath.Join(t.TempDir(), "report.html")
			args := append([]string{"-html", html}, tc.args...)
			folded := ""
			if tc.foldedHas != "" {
				folded = filepath.Join(t.TempDir(), "run.folded")
				args = append(args, "-folded", folded)
			}
			var stdout strings.Builder
			if err := run(args, &stdout); err != nil {
				t.Fatalf("run(%q): %v", args, err)
			}
			blob, err := os.ReadFile(html)
			if err != nil {
				t.Fatal(err)
			}
			doc := string(blob)
			for _, h := range tc.inHTML {
				if !strings.Contains(doc, h) {
					t.Errorf("HTML lacks %q", h)
				}
			}
			for _, h := range tc.absent {
				if strings.Contains(doc, h) {
					t.Errorf("HTML has unexpected %q", h)
				}
			}
			lines := strings.Split(stdout.String(), "\n")
			for _, want := range tc.stdout {
				found := false
				for _, l := range lines {
					found = found || l == want
				}
				if !found {
					t.Errorf("stdout lacks line %q:\n%s", want, stdout.String())
				}
			}
			if folded != "" {
				blob, err := os.ReadFile(folded)
				if err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(string(blob), tc.foldedHas+"\n") {
					t.Errorf("folded stacks lack %q:\n%s", tc.foldedHas, blob)
				}
			}
		})
	}
}

// TestRunNeedsInput: with no input flag there is nothing to report.
func TestRunNeedsInput(t *testing.T) {
	var stdout strings.Builder
	err := run([]string{"-html", filepath.Join(t.TempDir(), "r.html")}, &stdout)
	if err == nil || !strings.Contains(err.Error(), "nothing to report: give at least one of -profile, -dtrace") {
		t.Fatalf("run without inputs: err = %v", err)
	}
}
