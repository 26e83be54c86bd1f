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
	// The first run has another configuration fingerprint, so its
	// 900000 must stay out of the trend: Δ is 264830 → 250000 only.
	historyJSONL = `{"date":"2026-08-06","source":"benchreg","commit":"fff0000","go_version":"go1.22","num_cpu":2,"config_fingerprint":"111111111111","headline":{"ModExp512_ns_per_op":900000,"slo_fired":0}}
{"date":"2026-08-07","source":"benchreg","commit":"aaa1111","go_version":"go1.22","num_cpu":2,"config_fingerprint":"222222222222","headline":{"ModExp512_ns_per_op":264830,"slo_fired":0}}
{"date":"2026-08-08","source":"benchreg","commit":"bbb2222","go_version":"go1.22","num_cpu":2,"config_fingerprint":"222222222222","headline":{"ModExp512_ns_per_op":250000,"slo_fired":0}}
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
	hist := write("history.jsonl", historyJSONL)

	cases := []struct {
		name      string
		args      []string
		inHTML    []string // HTML fragments that must appear
		absent    []string // and ones that must not
		stdout    []string // exact stdout lines that must appear
		noStdout  bool     // stdout must stay empty
		foldedHas string   // a line the -folded file must hold ("" = no -folded)
	}{{
		name:      "profile",
		args:      []string{"-profile", profile, "-weight", "energy"},
		inHTML:    []string{"<h2>Energy / cycle profile</h2>", "<h3>Flame graph — energy (µJ)</h3>"},
		absent:    []string{"<h2>Distributed traces</h2>", "<h2>Cross-run history</h2>"},
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
	}, {
		name: "history",
		args: []string{"-history", hist},
		inHTML: []string{"<h2>Cross-run history</h2>", "<h3>Headline trends</h3>", "<h3>Runs</h3>",
			"<td>2.648e+05</td><td>2.5e+05</td><td>-5.6%</td>",
			"1 run(s) with another configuration are left out",
			"<td>fff0000</td>"}, // the Runs table still lists every run
		absent:   []string{"Per-layer energy", "9e+05"},
		noStdout: true,
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
			if tc.noStdout && stdout.Len() != 0 {
				t.Errorf("stdout = %q, want empty", stdout.String())
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
	if err == nil || !strings.Contains(err.Error(), "nothing to report") {
		t.Fatalf("run without inputs: err = %v", err)
	}
}
