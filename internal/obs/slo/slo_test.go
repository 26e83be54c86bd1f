package slo

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseTable(t *testing.T) {
	good := `[{"name":"battery-gap","metric":"core.battery_relative.secure_rsa","op":"<","threshold":0.5,"severity":"warn","reason":"Fig 4"}]`
	cases := []struct {
		name    string
		blob    string
		wantErr string // substring of the error, "" for success
	}{
		{"valid", good, ""},
		{"empty file", ``, "parsing rules"},
		{"empty list", `[]`, "declares no rules"},
		{"not a list", `{"name":"x"}`, "parsing rules"},
		{"bad comparator", `[{"name":"x","metric":"m","op":"<>","threshold":1,"severity":"warn"}]`, "bad comparator"},
		{"missing metric", `[{"name":"x","op":"<","threshold":1,"severity":"warn"}]`, "missing metric"},
		{"missing name", `[{"metric":"m","op":"<","threshold":1,"severity":"warn"}]`, "no name"},
		{"bad severity", `[{"name":"x","metric":"m","op":"<","threshold":1,"severity":"fatal"}]`, "bad severity"},
		{"bad aggregation", `[{"name":"x","metric":"m","agg":"p99","op":"<","threshold":1,"severity":"warn"}]`, "bad aggregation"},
		{"unknown field", `[{"name":"x","metric":"m","op":"<","treshold":1,"severity":"warn"}]`, "parsing rules"},
		{"duplicate names", `[{"name":"x","metric":"m","op":"<","threshold":1,"severity":"warn"},
		                     {"name":"x","metric":"m2","op":">","threshold":2,"severity":"crit"}]`, "duplicate rule name"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rules, err := Parse([]byte(tc.blob))
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Parse: %v", err)
				}
				if len(rules) != 1 || rules[0].Name != "battery-gap" {
					t.Fatalf("got %+v", rules)
				}
				return
			}
			if err == nil {
				t.Fatalf("Parse accepted %s", tc.blob)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// mapLookup answers run totals (span 0) from m, keyed "metric" or
// "metric.agg"; it has no windows, like a run without -series.
func mapLookup(m map[string]float64) Lookup {
	return func(metric, agg string, n int) (float64, bool) {
		if n != 0 {
			return 0, false
		}
		if agg != "" && agg != "value" {
			metric += "." + agg
		}
		v, ok := m[metric]
		return v, ok
	}
}

func TestEvalFiresOncePerRule(t *testing.T) {
	rules, err := Parse([]byte(`[
	  {"name":"battery-gap","metric":"rel","op":"<","threshold":0.5,"severity":"warn"},
	  {"name":"gap-crit","metric":"demand","denom":"supply","op":">","threshold":1,"severity":"crit"}
	]`))
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(rules)

	// First snapshot: only the ratio rule's inputs exist, ratio under limit.
	fired := e.Eval(10, mapLookup(map[string]float64{"demand": 90, "supply": 100}))
	if len(fired) != 0 {
		t.Fatalf("fired early: %+v", fired)
	}

	// Second snapshot: both violate.
	fired = e.Eval(20, mapLookup(map[string]float64{"rel": 0.4, "demand": 651, "supply": 300}))
	if len(fired) != 2 {
		t.Fatalf("got %d firings, want 2: %+v", len(fired), fired)
	}
	if fired[0].Rule.Name != "battery-gap" || fired[0].Value != 0.4 || fired[0].TSim != 20 {
		t.Fatalf("firing 0: %+v", fired[0])
	}
	if fired[1].Rule.Name != "gap-crit" || fired[1].Value != 651.0/300 {
		t.Fatalf("firing 1: %+v", fired[1])
	}

	// Third snapshot, still violating: deduped.
	if again := e.Eval(30, mapLookup(map[string]float64{"rel": 0.1, "demand": 700, "supply": 300})); len(again) != 0 {
		t.Fatalf("rules fired twice: %+v", again)
	}
	if len(e.Firings()) != 2 {
		t.Fatalf("Firings() = %d, want 2", len(e.Firings()))
	}
	if e.CritCount() != 1 {
		t.Fatalf("CritCount() = %d, want 1", e.CritCount())
	}
}

func TestEvalSkipsAbsentAndZeroDenom(t *testing.T) {
	rules, err := Parse([]byte(`[
	  {"name":"absent","metric":"never_recorded","op":">","threshold":0,"severity":"crit"},
	  {"name":"zero-denom","metric":"a","denom":"b","op":">","threshold":0,"severity":"crit"}
	]`))
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(rules)
	if fired := e.Eval(0, mapLookup(map[string]float64{"a": 5, "b": 0})); len(fired) != 0 {
		t.Fatalf("rules with missing data fired: %+v", fired)
	}
}

func TestEvalAggregations(t *testing.T) {
	rules, err := Parse([]byte(`[
	  {"name":"mean-latency","metric":"lat","agg":"mean","op":">=","threshold":10,"severity":"warn"}
	]`))
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(rules)
	fired := e.Eval(0, mapLookup(map[string]float64{"lat.mean": 12}))
	if len(fired) != 1 || fired[0].Value != 12 {
		t.Fatalf("agg lookup failed: %+v", fired)
	}
}

// TestSummaryAndMarshal pins the stderr summary line and the Firing
// record it is rendered from.
func TestSummaryAndMarshal(t *testing.T) {
	rules, _ := Parse([]byte(`[
	  {"name":"retx-energy","metric":"energy.drained_uj.radio-retx","denom":"energy.drained_uj","op":">","threshold":0.3,"severity":"warn","reason":"ARQ overhead"}
	]`))
	e := NewEngine(rules)
	e.Eval(-1, mapLookup(map[string]float64{"energy.drained_uj.radio-retx": 40, "energy.drained_uj": 100}))
	sum := Summary(e.Firings())
	for _, frag := range []string{"WARN retx-energy", "/ energy.drained_uj", "> 0.3", "ARQ overhead"} {
		if !strings.Contains(sum, frag) {
			t.Errorf("summary %q missing %q", sum, frag)
		}
	}
	if Summary(nil) != "" {
		t.Error("Summary(nil) not empty")
	}
	want := []Firing{{Rule: rules[0], Value: 0.4, TSim: -1}}
	if got := e.Firings(); !reflect.DeepEqual(got, want) {
		t.Errorf("Firings() = %+v, want %+v", got, want)
	}
}

// TestEvalIdempotentAcrossTicks pins the interval-evaluation contract:
// a rule whose metric oscillates around the threshold across many
// periodic ticks fires exactly once, at the first violating tick, and
// repeated evaluation after the run is settled adds nothing.
func TestEvalIdempotentAcrossTicks(t *testing.T) {
	rules, err := Parse([]byte(`[
	  {"name":"flappy","metric":"v","op":">","threshold":10,"severity":"warn"}
	]`))
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(rules)
	values := []float64{5, 9, 11, 3, 50, 2, 99}
	var firedAt []int64
	for i, v := range values {
		for _, f := range e.Eval(int64(i), mapLookup(map[string]float64{"v": v})) {
			firedAt = append(firedAt, f.TSim)
		}
	}
	if len(firedAt) != 1 || firedAt[0] != 2 {
		t.Fatalf("fired at ticks %v, want exactly [2]", firedAt)
	}
	// Tail evaluations (run end, strict-mode re-check) stay silent and
	// leave recorded state untouched.
	before := len(e.Firings())
	for i := 0; i < 5; i++ {
		if again := e.Eval(-1, mapLookup(map[string]float64{"v": 1000})); len(again) != 0 {
			t.Fatalf("re-fired on settled engine: %+v", again)
		}
	}
	if len(e.Firings()) != before || e.CritCount() != 0 {
		t.Fatalf("settled engine mutated: %d firings", len(e.Firings()))
	}
}

func TestParseBurnValidation(t *testing.T) {
	cases := []struct {
		name    string
		blob    string
		wantErr string
	}{
		{"valid burn", `[{"name":"b","metric":"m","op":">","threshold":1,"severity":"warn","burn":{"fast":2,"slow":5}}]`, ""},
		{"fast zero", `[{"name":"b","metric":"m","op":">","threshold":1,"severity":"warn","burn":{"fast":0,"slow":5}}]`, "burn.fast"},
		{"slow not greater", `[{"name":"b","metric":"m","op":">","threshold":1,"severity":"warn","burn":{"fast":3,"slow":3}}]`, "burn.slow"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.blob))
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Parse: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want mention of %q", err, tc.wantErr)
			}
		})
	}
}

// windowLookup builds a window-cut Lookup over a per-metric series of
// window deltas: the trailing-n value is the sum of the last n entries,
// a request for more windows than exist answers ok=false (the series
// recorder's warm-up gate), and so does span 0 (no run totals while a
// window is cut).
func windowLookup(series map[string][]float64, have int) Lookup {
	return func(metric, agg string, n int) (float64, bool) {
		if n <= 0 || n > have {
			return 0, false
		}
		s, ok := series[metric]
		if !ok {
			return 0, false
		}
		var sum float64
		for _, v := range s[len(s)-n:] {
			sum += v
		}
		return sum, true
	}
}

// runEndLookup is the run-end Lookup: totals for span 0, windows for
// the rest.
func runEndLookup(totals map[string]float64, series map[string][]float64, have int) Lookup {
	wlk := windowLookup(series, have)
	return func(metric, agg string, n int) (float64, bool) {
		if n == 0 {
			return mapLookup(totals)(metric, agg, 0)
		}
		return wlk(metric, agg, n)
	}
}

// TestEvalBurn drives the one Eval through burn-rule cases, each a
// sequence of evaluations on a fresh engine over the same rules.
func TestEvalBurn(t *testing.T) {
	rules, err := Parse([]byte(`[
	  {"name":"retry-burn","metric":"retries","denom":"ok","op":">","threshold":0.1,"severity":"warn","burn":{"fast":2,"slow":4}},
	  {"name":"plain","metric":"retries","op":">","threshold":0,"severity":"warn"},
	  {"name":"crit-burn","metric":"m","denom":"d","op":">","threshold":0,"severity":"crit","burn":{"fast":1,"slow":2}}
	]`))
	if err != nil {
		t.Fatal(err)
	}
	ok10 := []float64{10, 10, 10, 10}
	// Every window at 0.9 retries per ok session.
	warm := map[string][]float64{"retries": {9, 9, 9, 9}, "ok": ok10}
	// fast(2) = 4/20 = 0.2 > 0.1, but slow(4) = 4/40 = 0.1 is not.
	spiky := map[string][]float64{"retries": {0, 0, 2, 2}, "ok": ok10}
	// fast(2) = 6/20 = 0.3, slow(4) = 10/40 = 0.25: both trip.
	hot := map[string][]float64{"retries": {2, 2, 3, 3}, "ok": ok10}
	zero := map[string][]float64{"m": {5, 5}, "d": {0, 0}}
	totals := map[string]float64{"retries": 100, "ok": 1}

	type step struct {
		tSim int64
		lk   Lookup
		want []string // names of the rules that fire, in rule order
	}
	cases := []struct {
		name  string
		steps []step
	}{
		// Only 3 windows exist, so slow=4 cannot be answered.
		{"warm-up skip", []step{{3, windowLookup(warm, 3), nil}}},
		// One noisy interval must not page.
		{"fast span only", []step{{4, windowLookup(spiky, 4), nil}}},
		// Fires once; the plain rule stays silent at window cuts even
		// though its metric is far over threshold in every window.
		{"both spans", []step{
			{5, windowLookup(hot, 4), []string{"retry-burn"}},
			{6, windowLookup(hot, 4), nil},
		}},
		{"zero denominator", []step{{1, windowLookup(zero, 2), nil}}},
		{"nil lookup", []step{{0, nil, nil}}},
		// Firings dedupe by name across window cuts and run end: the
		// run-end lookup answers both spans, and only the plain rule is
		// new.
		{"dedupe shared by plain and burn", []step{
			{5, windowLookup(hot, 4), []string{"retry-burn"}},
			{-1, runEndLookup(totals, hot, 4), []string{"plain"}},
			{-1, runEndLookup(totals, hot, 4), nil},
		}},
		// Without windows (no -series) burn rules stay silent at run end.
		{"run end without windows", []step{{-1, runEndLookup(totals, hot, 0), []string{"plain"}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(rules)
			for _, st := range tc.steps {
				var got []string
				for _, f := range e.Eval(st.tSim, st.lk) {
					got = append(got, f.Rule.Name)
				}
				if !reflect.DeepEqual(got, st.want) {
					t.Fatalf("Eval(%d) fired %q, want %q", st.tSim, got, st.want)
				}
			}
			if e.CritCount() != 0 {
				t.Fatal("crit recorded for a skipped rule")
			}
		})
	}

	// The burn firing records both span values and its windows.
	e := NewEngine(rules)
	e.Eval(5, windowLookup(hot, 4))
	want := []Firing{{Rule: rules[0], Value: 6.0 / 20, SlowValue: 0.25, TSim: 5}}
	if got := e.Firings(); !reflect.DeepEqual(got, want) {
		t.Errorf("Firings() = %+v, want %+v", got, want)
	}
	if sum := Summary(e.Firings()); !strings.Contains(sum, "over 2w/4w = 0.3/0.25 > 0.1") {
		t.Fatalf("summary %q missing burn window annotation", sum)
	}
}
