package journal

import (
	"bytes"
	"math"
	"os"
	"strings"
	"sync"
	"testing"
)

// TestDisarmedEmitIsFree checks that a disarmed journal buffers
// nothing; its allocation check is in obs.TestDisabledPathAllocationFree.
func TestDisarmedEmitIsFree(t *testing.T) {
	j := New(1024)
	j.Emit(7, LevelWarn, "wep", "icv_failure", I("frame_bytes", 24), S("mode", "open"))
	if j.Len() != 0 {
		t.Fatalf("disarmed journal buffered %d events", j.Len())
	}
	var nilJ *Journal
	nilJ.Emit(0, LevelCrit, "x", "y") // must not panic
	if nilJ.On(LevelCrit) || nilJ.Enabled() {
		t.Fatal("nil journal reports enabled")
	}
}

func TestLevelFiltering(t *testing.T) {
	j := New(1024)
	j.SetEnabled(true)
	j.Emit(0, LevelDebug, "par", "task_start")
	j.Emit(0, LevelInfo, "core", "row")
	if j.Len() != 1 {
		t.Fatalf("default min level info kept %d events, want 1", j.Len())
	}
	j.SetMinLevel(LevelDebug)
	j.Emit(1, LevelDebug, "par", "task_start")
	if j.Len() != 2 {
		t.Fatalf("debug level not recorded after SetMinLevel")
	}
	if !j.On(LevelDebug) {
		t.Fatal("On(debug) false with min level debug")
	}
}

func TestLevelRoundTrip(t *testing.T) {
	for _, lv := range []Level{LevelDebug, LevelInfo, LevelWarn, LevelCrit} {
		got, err := ParseLevel(lv.String())
		if err != nil || got != lv {
			t.Fatalf("ParseLevel(%q) = %v, %v", lv.String(), got, err)
		}
	}
	if _, err := ParseLevel("fatal"); err == nil {
		t.Fatal("ParseLevel accepted unknown level")
	}
}

// TestDeterministicMerge emits events from many goroutines with
// task-derived t_sim values and checks the merged JSONL is identical to
// a sequential emission of the same logical events — the property the CI
// determinism job relies on for -journal byte-diffs.
func TestDeterministicMerge(t *testing.T) {
	const n = 500
	sequential := New(4096)
	sequential.SetEnabled(true)
	sequential.SetMinLevel(LevelDebug)
	for i := 0; i < n; i++ {
		sequential.Emit(int64(i), LevelDebug, "par", "task_start", I("task", int64(i)))
		sequential.Emit(int64(i), LevelDebug, "par", "task_finish", I("task", int64(i)))
	}
	var want bytes.Buffer
	if err := sequential.WriteJSONL(&want); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{2, 8} {
		parallel := New(4096)
		parallel.SetEnabled(true)
		parallel.SetMinLevel(LevelDebug)
		var next sync.Mutex
		idx := 0
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					next.Lock()
					i := idx
					idx++
					next.Unlock()
					if i >= n {
						return
					}
					parallel.Emit(int64(i), LevelDebug, "par", "task_start", I("task", int64(i)))
					parallel.Emit(int64(i), LevelDebug, "par", "task_finish", I("task", int64(i)))
				}
			}()
		}
		wg.Wait()
		var got bytes.Buffer
		if err := parallel.WriteJSONL(&got); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("journal with %d emitters differs from sequential emission", workers)
		}
	}
}

func TestEndOfRunSortsLast(t *testing.T) {
	j := New(256)
	j.SetEnabled(true)
	j.Emit(TEnd, LevelWarn, "slo", "slo_fired", S("rule", "battery-gap"))
	j.Emit(5, LevelInfo, "core", "row")
	j.Emit(0, LevelInfo, "core", "row")
	ev := j.Events()
	if len(ev) != 3 {
		t.Fatalf("got %d events", len(ev))
	}
	if ev[0].TSim != 0 || ev[1].TSim != 5 || ev[2].TSim != TEnd {
		t.Fatalf("end-of-run event not sorted last: %+v", ev)
	}
}

func TestCapacityDropsNewest(t *testing.T) {
	j := New(64)
	j.SetEnabled(true)
	for i := 0; i < 100; i++ {
		j.Emit(int64(i), LevelInfo, "x", "e")
	}
	if j.Len() != 64 {
		t.Fatalf("buffered %d events, want cap 64", j.Len())
	}
	if j.Dropped() != 36 {
		t.Fatalf("dropped %d, want 36", j.Dropped())
	}
	ev := j.Events()
	if ev[0].TSim != 0 || ev[len(ev)-1].TSim != 63 {
		t.Fatal("capacity bound did not drop newest events")
	}
}

func TestReset(t *testing.T) {
	j := New(256)
	j.SetEnabled(true)
	j.Emit(0, LevelInfo, "x", "e")
	j.Reset()
	if j.Len() != 0 || len(j.Events()) != 0 {
		t.Fatal("Reset left events behind")
	}
	j.Emit(0, LevelInfo, "x", "e2")
	if len(j.Events()) != 1 {
		t.Fatal("journal unusable after Reset")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	e := Event{TSim: 42, Level: LevelWarn, Layer: "wtls", Name: "alert_abort",
		Fields: []Field{
			S("desc", `handshake "failure"`),
			I("code", -3),
			F("ratio", 0.375),
			B("fatal", true),
			F("nan", math.NaN()),
		}}
	line := AppendJSON(nil, e)
	got, err := ParseLine(line)
	if err != nil {
		t.Fatalf("ParseLine(%s): %v", line, err)
	}
	// NaN serializes as the string "NaN", so compare canonical bytes of
	// a second round trip instead of structs.
	line2 := AppendJSON(nil, got)
	got2, err := ParseLine(line2)
	if err != nil {
		t.Fatal(err)
	}
	line3 := AppendJSON(nil, got2)
	if !bytes.Equal(line2, line3) {
		t.Fatalf("canonical encoding unstable:\n%s\n%s", line2, line3)
	}
	if got.TSim != 42 || got.Level != LevelWarn || got.Layer != "wtls" || got.Name != "alert_abort" {
		t.Fatalf("decoded header mismatch: %+v", got)
	}
	if got.Get("desc") != `handshake "failure"` || got.Get("code") != "-3" || got.Get("fatal") != "true" {
		t.Fatalf("decoded fields mismatch: %+v", got.Fields)
	}
	if v, ok := got.GetFloat("ratio"); !ok || v != 0.375 {
		t.Fatalf("GetFloat(ratio) = %v, %v", v, ok)
	}
	if _, ok := got.GetFloat("desc"); ok {
		t.Fatal("GetFloat on string field reported ok")
	}
}

func TestParseLineRejectsMalformed(t *testing.T) {
	bad := []string{
		``,
		`{}`,
		`{"t_sim":0,"level":"info","layer":"x"}`, // missing event
		`{"t_sim":0,"level":"loud","layer":"x","event":"e"}`,                     // bad level
		`{"t_sim":"zero","level":"info","layer":"x","event":"e"}`,                // t_sim not a number
		`{"t_sim":0,"level":"info","layer":"x","event":"e","extra":1}`,           // unknown key
		`{"t_sim":0,"level":"info","layer":"x","event":"e","kv":{"a":[1]}}`,      // nested kv
		`{"t_sim":0,"level":"info","layer":"x","event":"e","kv":{"a":null}}`,     // null kv
		`{"t_sim":0,"level":"info","layer":"x","event":"e"} trailing`,            // trailing data
		`[{"t_sim":0,"level":"info","layer":"x","event":"e"}]`,                   // not an object
		`{"t_sim":0,"level":"info","layer":"x","event":"e","kv":{"a":1}`,         // truncated
		strings.Repeat("{", 2000),                                                // deep nesting
		`{"t_sim":999999999999999999999,"level":"info","layer":"x","event":"e"}`, // t_sim overflow
	}
	for _, line := range bad {
		if _, err := ParseLine([]byte(line)); err == nil {
			t.Errorf("ParseLine accepted malformed line %q", line)
		}
	}
}

func TestReadSkipsMalformed(t *testing.T) {
	blob := `{"t_sim":0,"level":"info","layer":"x","event":"a"}
not json

{"t_sim":1,"level":"warn","layer":"x","event":"b","kv":{"n":2}}
{"t_sim":2,"level":"busted"}
`
	events, skipped, err := Read(strings.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || skipped != 2 {
		t.Fatalf("got %d events, %d skipped; want 2, 2", len(events), skipped)
	}
	if events[1].Get("n") != "2" {
		t.Fatalf("kv lost: %+v", events[1])
	}
}

func TestWriteFileLoadFile(t *testing.T) {
	j := New(256)
	j.SetEnabled(true)
	j.Emit(0, LevelInfo, "core", "row", S("mode", "unencrypted"), F("tx", 1234.5))
	j.Emit(1, LevelWarn, "core", "row", S("mode", "secure (RSA)"))
	path := t.TempDir() + "/j.jsonl"
	var buf bytes.Buffer
	if err := j.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	events, skipped, err := LoadFile(path)
	if err != nil || skipped != 0 {
		t.Fatalf("LoadFile: %v (skipped %d)", err, skipped)
	}
	if len(events) != 2 || events[0].Get("mode") != "unencrypted" {
		t.Fatalf("round trip through file lost data: %+v", events)
	}
}

func BenchmarkEnabledJournalEmit(b *testing.B) {
	j := New(1 << 20)
	j.SetEnabled(true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if j.Len() >= 1<<19 {
			j.Reset()
		}
		j.Emit(int64(i), LevelWarn, "wep", "icv_failure", I("frame_bytes", 24))
	}
}
