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

func mapLookup(m map[string]float64) Lookup {
	return func(metric, agg string) (float64, bool) {
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

// windowLookup builds a WindowLookup over a per-metric series of window
// deltas: the trailing-n value is the sum of the last n entries, and a
// request for more windows than exist answers ok=false (the ts
// recorder's warm-up gate).
func windowLookup(series map[string][]float64, have int) WindowLookup {
	return func(metric, agg string, n int) (float64, bool) {
		if n > have {
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

func TestEvalBurn(t *testing.T) {
	rules, err := Parse([]byte(`[
	  {"name":"retry-burn","metric":"retries","denom":"ok","op":">","threshold":0.1,"severity":"warn","burn":{"fast":2,"slow":4}},
	  {"name":"plain","metric":"retries","op":">","threshold":0,"severity":"warn"}
	]`))
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(rules)
	if !e.HasBurnRules() {
		t.Fatal("HasBurnRules = false")
	}

	// Warm-up: only 3 windows exist, slow=4 cannot be answered.
	warm := map[string][]float64{
		"retries": {9, 9, 9, 9},
		"ok":      {10, 10, 10, 10},
	}
	if fired := e.EvalBurn(3, windowLookup(warm, 3)); len(fired) != 0 {
		t.Fatalf("burn fired during warm-up: %+v", fired)
	}

	// Fast window hot but slow window still healthy: no fire (one noisy
	// interval must not page).
	spiky := map[string][]float64{
		"retries": {0, 0, 2, 2}, // fast(2)=4/20=0.2 > 0.1; slow(4)=4/40=0.1 not > 0.1
		"ok":      {10, 10, 10, 10},
	}
	if fired := e.EvalBurn(4, windowLookup(spiky, 4)); len(fired) != 0 {
		t.Fatalf("burn fired on fast-only violation: %+v", fired)
	}

	// Both windows hot: fires once, with both values recorded.
	hot := map[string][]float64{
		"retries": {2, 2, 3, 3},
		"ok":      {10, 10, 10, 10},
	}
	fired := e.EvalBurn(5, windowLookup(hot, 4))
	if len(fired) != 1 {
		t.Fatalf("got %d firings, want 1: %+v", len(fired), fired)
	}
	f := fired[0]
	if f.Rule.Name != "retry-burn" || f.Value != 6.0/20 || f.SlowValue != 0.25 || f.TSim != 5 {
		t.Fatalf("firing = %+v, want fast=0.3 slow=0.25 t=5", f)
	}

	// Dedupe across further window cuts.
	if again := e.EvalBurn(6, windowLookup(hot, 4)); len(again) != 0 {
		t.Fatalf("burn rule fired twice: %+v", again)
	}

	// EvalBurn never touches plain rules; Eval never touches burn rules.
	if fired := e.Eval(7, mapLookup(map[string]float64{"retries": 100, "ok": 1})); len(fired) != 1 || fired[0].Rule.Name != "plain" {
		t.Fatalf("Eval result = %+v, want only the plain rule", fired)
	}
	sum := Summary(e.Firings())
	if !strings.Contains(sum, "over 2w/4w") {
		t.Fatalf("summary %q missing burn window annotation", sum)
	}
	var burn Firing
	for _, f := range e.Firings() {
		if f.Rule.Name == "retry-burn" {
			burn = f
		}
	}
	want := Firing{Rule: rules[0], Value: 6.0 / 20, SlowValue: 0.25, TSim: 5}
	if !reflect.DeepEqual(burn, want) {
		t.Errorf("Firings() burn entry = %+v, want %+v", burn, want)
	}
	if b := burn.Rule.Burn; b == nil || b.Fast != 2 || b.Slow != 4 {
		t.Errorf("burn windows = %+v, want fast 2 slow 4", b)
	}
}

func TestEvalBurnSkipsZeroDenomAndNilLookup(t *testing.T) {
	rules, err := Parse([]byte(`[
	  {"name":"b","metric":"m","denom":"d","op":">","threshold":0,"severity":"crit","burn":{"fast":1,"slow":2}}
	]`))
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(rules)
	if fired := e.EvalBurn(0, nil); fired != nil {
		t.Fatalf("nil lookup fired: %+v", fired)
	}
	zero := map[string][]float64{"m": {5, 5}, "d": {0, 0}}
	if fired := e.EvalBurn(1, windowLookup(zero, 2)); len(fired) != 0 {
		t.Fatalf("zero denom fired: %+v", fired)
	}
	if e.CritCount() != 0 {
		t.Fatal("crit recorded for skipped rule")
	}
}
