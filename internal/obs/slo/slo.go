// Package slo is a declarative budget-violation detector: the paper's
// "demand exceeded supply" moments (the Figure 3 processing gap, the
// Figure 4 battery gap, retransmission energy overruns) expressed as
// rules over metric snapshots instead of prose. Rules live in a JSON
// file (see bench/slo_rules.json), are evaluated against flattened
// metric values at intervals and at run end, and fire at most once per
// run; the obs CLI turns firings into journal events, an exit code
// (-slo-strict), and report tables.
//
// The package depends only on the standard library and knows nothing
// about the metrics registry: callers supply a lookup function from
// (metric, aggregation) to a float64. That keeps slo importable from
// anywhere without cycles.
package slo

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
)

// Severity ranks a firing. Warn documents a budget under pressure; Crit
// fails the run under -slo-strict.
type Severity string

const (
	Warn Severity = "warn"
	Crit Severity = "crit"
)

// Rule is one declarative budget check:
//
//	{
//	  "name":      "battery-gap",
//	  "metric":    "core.battery_relative.secure_rsa",
//	  "op":        "<",
//	  "threshold": 0.5,
//	  "severity":  "warn",
//	  "reason":    "Fig 4: secure transactions per charge under half of plain"
//	}
//
// With "denom" set the rule checks metric/denom against the threshold
// (ratio rules, e.g. retransmit energy share). "agg" selects a
// histogram aggregation (count, sum, mean); counters and gauges use the
// default "value". A rule whose metric (or denom) is absent from the
// snapshot — or whose denominator is zero — is skipped for that
// evaluation: rules describe budgets for runs that exercise them.
//
// With "burn" set the rule is a multi-window burn-rate check (SRE
// style): instead of the run totals, the expression is evaluated over
// the trailing Fast windows AND over the trailing Slow windows of the
// time-series recorder, and fires only when both trip the threshold —
// the fast window catches the trajectory early, the slow window keeps
// one noisy interval from paging. Burn rules are evaluated by EvalBurn
// as windows are cut (they need -series history) and are skipped by
// Eval.
type Rule struct {
	Name      string   `json:"name"`
	Metric    string   `json:"metric"`
	Denom     string   `json:"denom,omitempty"`
	Agg       string   `json:"agg,omitempty"`
	Op        string   `json:"op"`
	Threshold float64  `json:"threshold"`
	Severity  Severity `json:"severity"`
	Burn      *Burn    `json:"burn,omitempty"`
	Reason    string   `json:"reason,omitempty"`
}

// Burn is the fast/slow trailing-window pair of a burn-rate rule,
// counted in recorder windows (window duration is the cmd's
// -series-interval, or one fleet sample period in model time).
type Burn struct {
	Fast int `json:"fast"`
	Slow int `json:"slow"`
}

var validOps = map[string]func(v, t float64) bool{
	"<":  func(v, t float64) bool { return v < t },
	"<=": func(v, t float64) bool { return v <= t },
	">":  func(v, t float64) bool { return v > t },
	">=": func(v, t float64) bool { return v >= t },
	"==": func(v, t float64) bool { return v == t },
	"!=": func(v, t float64) bool { return v != t },
}

var validAggs = map[string]bool{"": true, "value": true, "count": true, "sum": true, "mean": true}

// Validate reports the first problem with the rule, or nil.
func (r *Rule) Validate() error {
	if strings.TrimSpace(r.Name) == "" {
		return fmt.Errorf("slo: rule has no name")
	}
	if strings.TrimSpace(r.Metric) == "" {
		return fmt.Errorf("slo: rule %q: missing metric", r.Name)
	}
	if _, ok := validOps[r.Op]; !ok {
		return fmt.Errorf("slo: rule %q: bad comparator %q (want < <= > >= == !=)", r.Name, r.Op)
	}
	if !validAggs[r.Agg] {
		return fmt.Errorf("slo: rule %q: bad aggregation %q (want value, count, sum or mean)", r.Name, r.Agg)
	}
	switch r.Severity {
	case Warn, Crit:
	default:
		return fmt.Errorf("slo: rule %q: bad severity %q (want warn or crit)", r.Name, r.Severity)
	}
	if r.Burn != nil {
		if r.Burn.Fast < 1 {
			return fmt.Errorf("slo: rule %q: burn.fast must be >= 1", r.Name)
		}
		if r.Burn.Slow <= r.Burn.Fast {
			return fmt.Errorf("slo: rule %q: burn.slow (%d) must exceed burn.fast (%d)", r.Name, r.Burn.Slow, r.Burn.Fast)
		}
	}
	return nil
}

// Parse decodes and validates a rules file. Unknown JSON keys are
// rejected so a typoed field name cannot silently disable a budget, and
// duplicate rule names are rejected because firings dedupe by name.
func Parse(blob []byte) ([]Rule, error) {
	dec := json.NewDecoder(strings.NewReader(string(blob)))
	dec.DisallowUnknownFields()
	var rules []Rule
	if err := dec.Decode(&rules); err != nil {
		return nil, fmt.Errorf("slo: parsing rules: %w", err)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("slo: rules file declares no rules")
	}
	seen := make(map[string]bool, len(rules))
	for i := range rules {
		if err := rules[i].Validate(); err != nil {
			return nil, err
		}
		if seen[rules[i].Name] {
			return nil, fmt.Errorf("slo: duplicate rule name %q", rules[i].Name)
		}
		seen[rules[i].Name] = true
	}
	return rules, nil
}

// LoadFile reads and parses a rules file.
func LoadFile(path string) ([]Rule, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("slo: %w", err)
	}
	return Parse(blob)
}

// Firing records one rule violation. For burn-rate rules Value is the
// fast-window value and SlowValue the slow-window value that confirmed
// it; for plain rules SlowValue is zero.
type Firing struct {
	Rule      Rule
	Value     float64 // the evaluated value (metric, or metric/denom)
	SlowValue float64 // burn rules: the slow-window value
	TSim      int64   // model step of the evaluation that caught it
}

// Lookup resolves a (metric, aggregation) pair to a value; ok=false
// means the metric was not observed in this run.
type Lookup func(metric, agg string) (float64, bool)

// WindowLookup resolves a (metric, aggregation) pair over the trailing
// n time-series windows; ok=false means the metric was never seen or
// fewer than n windows exist yet (obs.SeriesRecorder.WindowLookup is the
// canonical implementation).
type WindowLookup func(metric, agg string, n int) (float64, bool)

// Engine evaluates a rule set against successive snapshots, firing each
// rule at most once. Safe for concurrent use (the live HTTP server
// evaluates on a ticker while the run thread evaluates at exit).
type Engine struct {
	rules []Rule

	mu      sync.Mutex
	fired   map[string]bool
	firings []Firing
}

// NewEngine builds an engine over validated rules.
func NewEngine(rules []Rule) *Engine {
	return &Engine{rules: rules, fired: make(map[string]bool)}
}

// Rules returns the engine's rule set.
func (e *Engine) Rules() []Rule { return e.rules }

// Eval checks every not-yet-fired plain rule against the lookup and
// returns the rules that fired during this evaluation, in rule-file
// order. Burn-rate rules are skipped (they need window history — see
// EvalBurn), so a run without -series leaves them silent rather than
// firing them on totals they were not written for.
func (e *Engine) Eval(tSim int64, lk Lookup) []Firing {
	if e == nil {
		return nil
	}
	var fresh []Firing
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, r := range e.rules {
		if e.fired[r.Name] || r.Burn != nil {
			continue
		}
		v, ok := lk(r.Metric, r.Agg)
		if !ok {
			continue
		}
		if r.Denom != "" {
			d, ok := lk(r.Denom, r.Agg)
			if !ok || d == 0 {
				continue
			}
			v /= d
		}
		if validOps[r.Op](v, r.Threshold) {
			f := Firing{Rule: r, Value: v, TSim: tSim}
			e.fired[r.Name] = true
			e.firings = append(e.firings, f)
			fresh = append(fresh, f)
		}
	}
	return fresh
}

// HasBurnRules reports whether the rule set contains any burn-rate
// rules (whether the CLI needs to hang EvalBurn off window cuts).
func (e *Engine) HasBurnRules() bool {
	if e == nil {
		return false
	}
	for _, r := range e.rules {
		if r.Burn != nil {
			return true
		}
	}
	return false
}

// EvalBurn checks every not-yet-fired burn-rate rule against the
// trailing-window lookup: the rule's expression is computed over the
// fast window span and the slow window span, and fires only when both
// trip the threshold. A metric absent from either span — including the
// warm-up phase before slow windows of history exist — skips the rule
// for this evaluation. Fired rules dedupe with Eval through the same
// per-name state.
func (e *Engine) EvalBurn(tSim int64, wlk WindowLookup) []Firing {
	if e == nil || wlk == nil {
		return nil
	}
	var fresh []Firing
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, r := range e.rules {
		if r.Burn == nil || e.fired[r.Name] {
			continue
		}
		fast, ok := e.windowValue(r, r.Burn.Fast, wlk)
		if !ok || !validOps[r.Op](fast, r.Threshold) {
			continue
		}
		slow, ok := e.windowValue(r, r.Burn.Slow, wlk)
		if !ok || !validOps[r.Op](slow, r.Threshold) {
			continue
		}
		f := Firing{Rule: r, Value: fast, SlowValue: slow, TSim: tSim}
		e.fired[r.Name] = true
		e.firings = append(e.firings, f)
		fresh = append(fresh, f)
	}
	return fresh
}

// windowValue computes a rule's expression (metric, or metric/denom)
// over the trailing n windows. Caller holds e.mu.
func (e *Engine) windowValue(r Rule, n int, wlk WindowLookup) (float64, bool) {
	v, ok := wlk(r.Metric, r.Agg, n)
	if !ok {
		return 0, false
	}
	if r.Denom != "" {
		d, ok := wlk(r.Denom, r.Agg, n)
		if !ok || d == 0 {
			return 0, false
		}
		v /= d
	}
	return v, true
}

// Firings returns every firing so far, in firing order.
func (e *Engine) Firings() []Firing {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Firing, len(e.firings))
	copy(out, e.firings)
	return out
}

// CritCount reports how many fired rules are Crit severity — the number
// -slo-strict turns into a nonzero exit.
func (e *Engine) CritCount() int {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, f := range e.firings {
		if f.Rule.Severity == Crit {
			n++
		}
	}
	return n
}

// Summary renders fired rules as aligned text lines for stderr, e.g.
//
//	WARN battery-gap: core.battery_relative.secure_rsa = 0.403 < 0.5
func Summary(firings []Firing) string {
	if len(firings) == 0 {
		return ""
	}
	var b strings.Builder
	for _, f := range firings {
		expr := f.Rule.Metric
		if f.Rule.Agg != "" && f.Rule.Agg != "value" {
			expr += "." + f.Rule.Agg
		}
		if f.Rule.Denom != "" {
			expr += " / " + f.Rule.Denom
		}
		if f.Rule.Burn != nil {
			expr = fmt.Sprintf("%s over %dw/%dw", expr, f.Rule.Burn.Fast, f.Rule.Burn.Slow)
			fmt.Fprintf(&b, "%s %s: %s = %.4g/%.4g %s %.4g", strings.ToUpper(string(f.Rule.Severity)),
				f.Rule.Name, expr, f.Value, f.SlowValue, f.Rule.Op, f.Rule.Threshold)
		} else {
			fmt.Fprintf(&b, "%s %s: %s = %.4g %s %.4g", strings.ToUpper(string(f.Rule.Severity)),
				f.Rule.Name, expr, f.Value, f.Rule.Op, f.Rule.Threshold)
		}
		if f.Rule.Reason != "" {
			fmt.Fprintf(&b, " (%s)", f.Rule.Reason)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
