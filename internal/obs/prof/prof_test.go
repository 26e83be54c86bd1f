package prof

import (
	"bytes"
	"os"
	"strings"
	"sync"
	"testing"
)

func TestDisarmedAddRecordsNothing(t *testing.T) {
	p := New()
	sp := p.Frame("a/b")
	sp.Add(100, 200)
	sp.AddCycles(1)
	sp.AddEnergyUJ(1)
	sp.AddEnergyJ(1.5)
	if got := p.Snapshot().Frames; len(got) != 0 {
		t.Fatalf("disarmed profiler recorded %d frames, want 0", len(got))
	}
	if sp.Active() {
		t.Fatal("span reports Active on a disarmed profiler")
	}
}

func TestArmedAddAccumulates(t *testing.T) {
	p := New()
	p.SetEnabled(true)
	if !p.Enabled() {
		t.Fatal("Enabled() false after SetEnabled(true)")
	}
	sp := p.Frame("wtls.Handshake/rsa/ModExpWindow")
	sp.Add(10, 3)
	sp.AddCycles(5)
	sp.AddEnergyUJ(7)
	sp.AddEnergyJ(0.000002) // 2 µJ
	snap := p.Snapshot()
	if len(snap.Frames) != 1 {
		t.Fatalf("got %d frames, want 1: %+v", len(snap.Frames), snap.Frames)
	}
	f := snap.Frames[0]
	if f.Path != "wtls.Handshake/rsa/ModExpWindow" {
		t.Fatalf("path = %q", f.Path)
	}
	if f.Cycles != 15 || f.EnergyUJ != 12 {
		t.Fatalf("weights = (%d, %d), want (15, 12)", f.Cycles, f.EnergyUJ)
	}
}

func TestZeroSpanIsSafe(t *testing.T) {
	var sp Span
	sp.Add(1, 1)
	sp.AddCycles(1)
	sp.AddEnergyUJ(1)
	sp.AddEnergyJ(1)
	if sp.Active() {
		t.Fatal("zero span is Active")
	}
	if child := sp.Enter("a/b"); child.Active() {
		t.Fatal("zero span's child is Active")
	}
}

func TestNilProfilerIsSafe(t *testing.T) {
	var p *Profiler
	p.SetEnabled(true)
	if p.Enabled() {
		t.Fatal("nil profiler Enabled")
	}
	p.Frame("a").Add(1, 1)
	p.Reset()
	if snap := p.Snapshot(); len(snap.Frames) != 0 {
		t.Fatalf("nil profiler snapshot has frames: %+v", snap.Frames)
	}
}

func TestReset(t *testing.T) {
	p := New()
	p.SetEnabled(true)
	p.Frame("a/b").Add(1, 2)
	p.Reset()
	if !p.Enabled() {
		t.Fatal("Reset disarmed the profiler")
	}
	if got := p.Snapshot().Frames; len(got) != 0 {
		t.Fatalf("frames survive Reset: %+v", got)
	}
}

// TestConcurrentDeterminism is the worker-count independence property
// the CI byte-diff relies on: the same set of adds, interleaved any
// way across goroutines, exports the same bytes.
func TestConcurrentDeterminism(t *testing.T) {
	export := func(workers int) string {
		p := New()
		p.SetEnabled(true)
		paths := []string{"l1/a", "l1/b", "l2/a/deep", "l2"}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < 400; i += workers {
					sp := p.Frame(paths[i%len(paths)])
					sp.Add(int64(i), int64(2*i))
				}
			}(w)
		}
		wg.Wait()
		var folded, js bytes.Buffer
		if err := p.Snapshot().WriteFolded(&folded, Energy); err != nil {
			t.Fatal(err)
		}
		if err := p.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		return folded.String() + "\x00" + js.String()
	}
	one := export(1)
	eight := export(8)
	if one != eight {
		t.Fatalf("export differs between 1 and 8 workers:\n--- 1:\n%s\n--- 8:\n%s", one, eight)
	}
}

func TestSnapshotSortedAndSelfOnly(t *testing.T) {
	p := New()
	p.SetEnabled(true)
	p.Frame("z").AddCycles(1)
	p.Frame("a/b").AddCycles(2)
	p.Frame("a").AddCycles(3)
	p.Frame("m/only-structure") // materialized but zero weight
	snap := p.Snapshot()
	want := []string{"a", "a/b", "z"}
	if len(snap.Frames) != len(want) {
		t.Fatalf("got %d frames %+v, want %v", len(snap.Frames), snap.Frames, want)
	}
	for i, f := range snap.Frames {
		if f.Path != want[i] {
			t.Fatalf("frame %d = %q, want %q", i, f.Path, want[i])
		}
	}
}

func TestMergeAndTotals(t *testing.T) {
	a := &Profile{GoVersion: "go1", Frames: []FrameValue{
		{Path: "x", Cycles: 1, EnergyUJ: 10},
		{Path: "y", Cycles: 2},
	}}
	b := &Profile{Frames: []FrameValue{
		{Path: "x", Cycles: 3, EnergyUJ: 30},
		{Path: "z", EnergyUJ: 5},
	}}
	m := Merge(a, nil, b)
	if m.GoVersion != "go1" {
		t.Fatalf("GoVersion = %q", m.GoVersion)
	}
	wantPaths := []string{"x", "y", "z"}
	for i, f := range m.Frames {
		if f.Path != wantPaths[i] {
			t.Fatalf("merged frame %d = %q, want %q", i, f.Path, wantPaths[i])
		}
	}
	if m.Frames[0].Cycles != 4 || m.Frames[0].EnergyUJ != 40 {
		t.Fatalf("merged x = %+v", m.Frames[0])
	}
	cyc, uj := m.Totals()
	if cyc != 6 || uj != 45 {
		t.Fatalf("Totals = (%d, %d), want (6, 45)", cyc, uj)
	}
}

func TestWriteFolded(t *testing.T) {
	p := &Profile{Frames: []FrameValue{
		{Path: "wtls.Handshake/rsa/ModExpWindow", Cycles: 47_000_000},
		{Path: "wtls.Record/3des", Cycles: 9000, EnergyUJ: 12},
		{Path: "idle", EnergyUJ: 5},
	}}
	var buf bytes.Buffer
	if err := p.WriteFolded(&buf, Cycles); err != nil {
		t.Fatal(err)
	}
	want := "wtls.Handshake;rsa;ModExpWindow 47000000\nwtls.Record;3des 9000\n"
	if buf.String() != want {
		t.Fatalf("folded cycles:\n%q\nwant\n%q", buf.String(), want)
	}
	buf.Reset()
	if err := p.WriteFolded(&buf, Energy); err != nil {
		t.Fatal(err)
	}
	want = "wtls.Record;3des 12\nidle 5\n"
	if buf.String() != want {
		t.Fatalf("folded energy:\n%q\nwant\n%q", buf.String(), want)
	}
}

func TestTopFlatCum(t *testing.T) {
	p := &Profile{Frames: []FrameValue{
		{Path: "root", EnergyUJ: 10},
		{Path: "root/radio", EnergyUJ: 70},
		{Path: "root/cpu/modexp", EnergyUJ: 20},
	}}
	rows := p.Top(Energy)
	if len(rows) == 0 || rows[0].Name != "root" {
		t.Fatalf("rows[0] = %+v, want root first", rows)
	}
	byName := map[string]TopRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	if r := byName["root"]; r.FlatUJ != 10 || r.CumUJ != 100 {
		t.Fatalf("root flat/cum = %d/%d, want 10/100", r.FlatUJ, r.CumUJ)
	}
	if r := byName["radio"]; r.FlatUJ != 70 || r.CumUJ != 70 {
		t.Fatalf("radio flat/cum = %d/%d, want 70/70", r.FlatUJ, r.CumUJ)
	}
	if r := byName["modexp"]; r.CumFraction < 0.19 || r.CumFraction > 0.21 {
		t.Fatalf("modexp cum fraction = %f, want 0.2", r.CumFraction)
	}
	// Cumulative ordering: root > radio > modexp = cpu > ...
	if rows[1].Name != "radio" {
		t.Fatalf("rows[1] = %q, want radio", rows[1].Name)
	}
}

func TestTopRepeatedNameCountsOnce(t *testing.T) {
	p := &Profile{Frames: []FrameValue{{Path: "a/b/a", Cycles: 5}}}
	for _, r := range p.Top(Cycles) {
		if r.Name == "a" && r.CumCycles != 5 {
			t.Fatalf("repeated frame name double-counted: cum=%d, want 5", r.CumCycles)
		}
	}
}

func TestWriteTopTruncates(t *testing.T) {
	p := &Profile{Frames: []FrameValue{
		{Path: "a", Cycles: 3}, {Path: "b", Cycles: 2}, {Path: "c", Cycles: 1},
	}}
	var buf bytes.Buffer
	if err := p.WriteTop(&buf, Cycles, 2); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 { // header + 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], "instr") {
		t.Fatalf("header missing unit: %q", lines[0])
	}
}

func TestParseWeight(t *testing.T) {
	energetic := &Profile{Frames: []FrameValue{{Path: "x", EnergyUJ: 1}}}
	cyclesOnly := &Profile{Frames: []FrameValue{{Path: "x", Cycles: 1}}}
	cases := []struct {
		in   string
		p    *Profile
		want Weight
	}{
		{"cycles", energetic, Cycles},
		{"energy", cyclesOnly, Energy},
		{"auto", energetic, Energy},
		{"auto", cyclesOnly, Cycles},
		{"", energetic, Energy},
	}
	for _, c := range cases {
		got, err := ParseWeight(c.in, c.p)
		if err != nil || got != c.want {
			t.Fatalf("ParseWeight(%q) = %q, %v; want %q", c.in, got, err, c.want)
		}
	}
	if _, err := ParseWeight("watts", energetic); err == nil {
		t.Fatal("ParseWeight accepted bogus weight")
	}
}

func TestRoundTripFile(t *testing.T) {
	p := New()
	p.SetEnabled(true)
	p.Frame("esp.Protect/3des/cbc").Add(521, 9)
	path := t.TempDir() + "/profile.json"
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Frames) != 1 || got.Frames[0].Path != "esp.Protect/3des/cbc" ||
		got.Frames[0].Cycles != 521 || got.Frames[0].EnergyUJ != 9 {
		t.Fatalf("round trip = %+v", got.Frames)
	}
}

func TestArmedAddAllocsFree(t *testing.T) {
	p := New()
	p.SetEnabled(true)
	sp := p.Frame("hot/path")
	if allocs := testing.AllocsPerRun(1000, func() {
		sp.Add(100, 50)
	}); allocs != 0 {
		t.Fatalf("armed Add allocates %v bytes/op, want 0", allocs)
	}
}

func BenchmarkArmedProfilerAdd(b *testing.B) {
	p := New()
	p.SetEnabled(true)
	sp := p.Frame("bench/armed")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp.Add(int64(i), int64(i))
	}
}
