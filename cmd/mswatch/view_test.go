package main

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/journal"
)

func TestReadSSE(t *testing.T) {
	stream := "event: hello\ndata: {\"metric_interval_ms\":1000}\n\n" +
		": keep-alive comment\n" +
		"event: journal\ndata: {\"t_sim\":3,\"level\":\"warn\",\"layer\":\"wep\",\"event\":\"icv_failure\"}\n\n" +
		"event: metrics\ndata: {\"i\":0,\"t\":1000,\"counters\":[{\"name\":\"arq.retransmits\",\"value\":2}]}\n\n"
	var got []sseEvent
	if err := readSSE(strings.NewReader(stream), func(ev sseEvent) { got = append(got, ev) }); err != nil {
		t.Fatalf("readSSE: %v", err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d frames, want 3: %+v", len(got), got)
	}
	wantNames := []string{"hello", "journal", "metrics"}
	for i, w := range wantNames {
		if got[i].name != w {
			t.Errorf("frame %d name = %q, want %q", i, got[i].name, w)
		}
	}
	if !strings.Contains(got[1].data, `"icv_failure"`) {
		t.Errorf("journal frame data = %q", got[1].data)
	}
}

func TestReadSSEMultiLineData(t *testing.T) {
	stream := "event: x\ndata: line1\ndata: line2\n\n"
	var got []sseEvent
	if err := readSSE(strings.NewReader(stream), func(ev sseEvent) { got = append(got, ev) }); err != nil {
		t.Fatalf("readSSE: %v", err)
	}
	if len(got) != 1 || got[0].data != "line1\nline2" {
		t.Fatalf("got %+v, want one frame with joined data", got)
	}
}

func TestViewJournalFormatting(t *testing.T) {
	var sb strings.Builder
	v := &view{w: &sb, min: journal.LevelInfo}

	// Below min level: suppressed.
	v.handle(sseEvent{name: "journal",
		data: `{"t_sim":1,"level":"debug","layer":"par","event":"task_start"}`})
	// At level: rendered with fields.
	v.handle(sseEvent{name: "journal",
		data: `{"t_sim":50,"level":"info","layer":"energy","event":"battery_milestone","kv":{"pct":50,"drained_j":13000.5}}`})
	// SLO firing: ALERT line regardless of level.
	v.handle(sseEvent{name: "journal",
		data: `{"t_sim":-1,"level":"warn","layer":"slo","event":"slo_fired","kv":{"rule":"battery-gap","severity":"warn","metric":"core.battery_relative.secure_rsa","value":0.73,"op":"<","threshold":0.8,"reason":"Fig 4 gap"}}`})

	out := sb.String()
	if strings.Contains(out, "task_start") {
		t.Errorf("debug event should be suppressed at info level:\n%s", out)
	}
	if !strings.Contains(out, "[info ] energy/battery_milestone t=50 pct=50 drained_j=13000.5") {
		t.Errorf("milestone line missing or malformed:\n%s", out)
	}
	if !strings.Contains(out, "ALERT [WARN] rule=battery-gap core.battery_relative.secure_rsa = 0.73 < 0.8 (Fig 4 gap)") {
		t.Errorf("alert line missing or malformed:\n%s", out)
	}
}

// TestViewMetricsRates pins the live Δ/s line over a metrics window:
// counter deltas scale by the hello frame's push interval, entries keep
// the window's name order with counters first, and overflow collapses
// into "+N more".
func TestViewMetricsRates(t *testing.T) {
	frame := func(w obs.SeriesWindow) sseEvent {
		blob, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		return sseEvent{name: "metrics", data: string(blob)}
	}
	var sb strings.Builder
	v := &view{w: &sb, min: journal.LevelInfo}
	v.handle(sseEvent{name: "hello", data: `{"metric_interval_ms":500}`})
	v.handle(frame(obs.SeriesWindow{I: 3, T: 1500,
		Counters: []obs.CounterValue{{Name: "arq.retx", Value: 3}, {Name: "wtls.records", Value: 40}},
		Gauges:   []obs.GaugeValue{{Name: "gw.active", Value: 5}},
	}))
	out := sb.String()
	if !strings.Contains(out, "rates: arq.retx 6/s, wtls.records 80/s, gw.active=5\n") {
		t.Errorf("rates line missing or misordered:\n%s", out)
	}

	// Overflow: 7 counters at cap 6.
	sb.Reset()
	var many obs.SeriesWindow
	for _, name := range []string{"a", "b", "c", "d", "e", "f", "g"} {
		many.Counters = append(many.Counters, obs.CounterValue{Name: name, Value: 1})
	}
	v.handle(frame(many))
	out = sb.String()
	if !strings.Contains(out, "f 2/s (+1 more)") {
		t.Errorf("overflow suffix missing:\n%s", out)
	}
	if strings.Contains(out, "g 2/s") {
		t.Errorf("entry past the cap rendered:\n%s", out)
	}

	// A window with nothing to show: no line.
	sb.Reset()
	v.handle(frame(obs.SeriesWindow{I: 9, T: 4500}))
	if sb.Len() != 0 {
		t.Errorf("empty metrics window produced output: %q", sb.String())
	}
}

func TestFormatProgress(t *testing.T) {
	line, err := formatProgress([]byte(`{"active":true,"sweep":2,"total":128,"done":37,"workers":4,"per_worker":[10,9,9,9],"elapsed_ms":120,"eta_ms":295,"tasks_per_sec":308.3}`))
	if err != nil {
		t.Fatalf("formatProgress: %v", err)
	}
	for _, want := range []string{"sweep 2:", "37/128", "28.9%", "4 workers", "308 tasks/s", "eta 0.3s"} {
		if !strings.Contains(line, want) {
			t.Errorf("progress line %q missing %q", line, want)
		}
	}

	line, err = formatProgress([]byte(`{"active":false,"sweep":2,"total":128,"done":128,"workers":4,"per_worker":[32,32,32,32],"elapsed_ms":400,"eta_ms":0,"tasks_per_sec":320}`))
	if err != nil {
		t.Fatalf("formatProgress: %v", err)
	}
	if !strings.Contains(line, "[done]") {
		t.Errorf("finished sweep line %q missing [done]", line)
	}

	// No sweep yet: nothing to show.
	line, err = formatProgress([]byte(`{"active":false,"total":0,"done":0}`))
	if err != nil || line != "" {
		t.Errorf("idle payload: line=%q err=%v, want empty/nil", line, err)
	}
}

// TestFormatProgressFleet renders the fleet simulator's payload: epochs
// done of the run's total, named by the run's label.
func TestFormatProgressFleet(t *testing.T) {
	line, err := formatProgress([]byte(`{"active":true,"label":"fleet secure","sweep":0,"unit":"epochs","total":40,"done":10,"workers":4,"elapsed_ms":500,"eta_ms":1500,"tasks_per_sec":20}`))
	if err != nil {
		t.Fatalf("formatProgress: %v", err)
	}
	want := "fleet secure: 10/40 epochs (25.0%), 4 workers, 20 epochs/s, eta 1.5s"
	if line != want {
		t.Errorf("fleet progress line = %q, want %q", line, want)
	}
}

func TestViewProgressDedup(t *testing.T) {
	var sb strings.Builder
	v := &view{w: &sb, min: journal.LevelInfo}
	payload := []byte(`{"active":true,"sweep":1,"total":10,"done":5,"workers":2,"per_worker":[3,2],"elapsed_ms":10,"eta_ms":10,"tasks_per_sec":500}`)
	v.progress(payload)
	v.progress(payload)
	if n := strings.Count(sb.String(), "sweep 1:"); n != 1 {
		t.Errorf("identical progress printed %d times, want 1:\n%s", n, sb.String())
	}
}

// TestViewSlowestTracedSessions pins the live slowest-sessions table:
// wide session events carrying a trace_id rank by duration_us, client
// and server events alike, cap at maxSlow, and the line reprints only
// when the ranking changes.
func TestViewSlowestTracedSessions(t *testing.T) {
	var sb strings.Builder
	v := &view{w: &sb, min: journal.LevelCrit} // suppress the event lines themselves

	// No trace_id: ignored.
	v.handle(sseEvent{name: "journal",
		data: `{"t_sim":1,"level":"info","layer":"gateway","event":"session","kv":{"duration_us":9999}}`})
	if strings.Contains(sb.String(), "slowest") {
		t.Fatalf("untraced session entered the table:\n%s", sb.String())
	}

	v.handle(sseEvent{name: "journal",
		data: `{"t_sim":2,"level":"info","layer":"gateway","event":"session","kv":{"trace_id":"00000000000000aa","duration_us":500}}`})
	if !strings.Contains(sb.String(), "slowest traced sessions: 00000000000000aa 500µs") {
		t.Fatalf("first traced session missing:\n%s", sb.String())
	}

	// A slower one takes the head; a client event ranks by its own
	// duration_us, not its handshake_us.
	v.handle(sseEvent{name: "journal",
		data: `{"t_sim":3,"level":"info","layer":"gateway","event":"session","kv":{"trace_id":"00000000000000bb","duration_us":2000}}`})
	v.handle(sseEvent{name: "journal",
		data: `{"t_sim":4,"level":"info","layer":"load","event":"session","kv":{"trace_id":"00000000000000cc","handshake_us":9000,"duration_us":1000}}`})
	out := sb.String()
	if !strings.Contains(out, "00000000000000bb 2000µs, 00000000000000cc 1000µs, 00000000000000aa 500µs") {
		t.Fatalf("ranking wrong:\n%s", out)
	}

	// Fill past the cap: the slowest five survive, the 500µs one falls off.
	for i := 0; i < maxSlow; i++ {
		v.handle(sseEvent{name: "journal",
			data: `{"t_sim":5,"level":"info","layer":"gateway","event":"session","kv":{"trace_id":"00000000000000dd","duration_us":3000}}`})
	}
	last := sb.String()[strings.LastIndex(sb.String(), "slowest"):]
	if strings.Contains(last, "00000000000000aa") {
		t.Fatalf("table did not cap at %d:\n%s", maxSlow, last)
	}

	// An identical update must not reprint.
	lines := strings.Count(sb.String(), "slowest traced sessions:")
	v.handle(sseEvent{name: "journal",
		data: `{"t_sim":6,"level":"info","layer":"gateway","event":"session","kv":{"trace_id":"00000000000000ee","duration_us":1}}`})
	if got := strings.Count(sb.String(), "slowest traced sessions:"); got != lines {
		t.Fatalf("unchanged table reprinted: %d -> %d lines", lines, got)
	}
}
