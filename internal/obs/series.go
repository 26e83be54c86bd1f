package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// SeriesHist is one histogram's activity within a single window: the
// delta count/sum plus nearest-rank quantiles over the delta bucket
// counts (quantiles of the samples observed during the window, not of
// the cumulative distribution).
type SeriesHist struct {
	Name  string `json:"name"`
	Count int64  `json:"count"`
	Sum   int64  `json:"sum"`
	P50   int64  `json:"p50"`
	P95   int64  `json:"p95"`
	P99   int64  `json:"p99"`
}

// SeriesWindow is one fixed-interval bucket of metric activity.
// Counters hold deltas (only metrics that moved); Gauges hold the
// last-set value of every gauge; Histograms hold per-window merges of
// the histograms that saw samples. I is the window ordinal, T the
// window key (t_sim or wall-clock ms since Arm). Empty windows are
// still recorded — they are the time base trailing-window SLO rules
// count against.
type SeriesWindow struct {
	I          int64          `json:"i"`
	T          int64          `json:"t"`
	Counters   []CounterValue `json:"counters,omitempty"`
	Gauges     []GaugeValue   `json:"gauges,omitempty"`
	Histograms []SeriesHist   `json:"histograms,omitempty"`
}

// maxSeriesWindows bounds recorder memory: beyond it, new windows are
// counted in Dropped instead of stored (an 18-hour soak at 1 s windows
// fits).
const maxSeriesWindows = 1 << 16

// SeriesRecorder is the windowed time-series layer on top of the
// metrics registry: it periodically diffs Registry.Snapshot() into
// fixed-interval windows — delta counters, last-value gauges, and
// per-window histogram merges with p50/p95/p99 derived from the fixed
// bucket bounds — so the SLO engine can fire on trajectories ("retry
// ratio rising over the last N windows") instead of only on end-of-run
// totals.
//
// Windows are keyed by the caller's clock. Simulation cmds tick with
// SeriesTick(tSim) from a deterministic point (the fleet epoch
// barrier), so the series file is byte-identical at any -workers ×
// -shards combination and the CI determinism byte-diff extends to it.
// Wall-time tools (gateway, loadgen) set -series-interval and the CLI
// ticks with TickWall, which keys windows by milliseconds since Arm.
//
// The recorder honors the armed-lazily contract: a disarmed Tick is one
// atomic load and a branch — no allocation, no lock, no snapshot — so
// the fleet hot loop can call it unconditionally (enforced by
// TestDisabledPathAllocationFree and BenchmarkDisarmed/series).
//
// The zero value is usable and disarmed; Arm starts recording. All
// methods are safe for concurrent use, but windows are cut in call
// order, so tick from one goroutine.
type SeriesRecorder struct {
	armed atomic.Bool

	mu           sync.Mutex
	reg          *Registry
	onWindow     func(t int64)
	t0           time.Time
	prev         Snapshot
	windows      []SeriesWindow
	dropped      int64
	seenCounters map[string]bool
	seenHists    map[string]bool
}

// Arm binds the recorder to reg, discards any earlier windows, takes
// the baseline snapshot deltas are computed against, and enables
// ticking. onWindow (nil ok) runs synchronously after each window is
// cut with the window's key — the CLI hangs burn-rate SLO evaluation
// off it.
func (r *SeriesRecorder) Arm(reg *Registry, onWindow func(t int64)) {
	r.mu.Lock()
	r.reg = reg
	r.onWindow = onWindow
	r.t0 = time.Now()
	r.prev = reg.Snapshot()
	r.windows, r.dropped = nil, 0
	r.seenCounters = make(map[string]bool)
	r.seenHists = make(map[string]bool)
	r.mu.Unlock()
	r.armed.Store(true)
}

// Tick cuts a window keyed by the caller's model time. Disarmed cost is
// one atomic load and a branch (no allocation); call it unconditionally
// from deterministic points such as the fleet epoch barrier.
func (r *SeriesRecorder) Tick(t int64) {
	if r == nil || !r.armed.Load() {
		return
	}
	r.cut(t)
}

// TickWall cuts a window keyed by wall-clock milliseconds since Arm.
func (r *SeriesRecorder) TickWall() {
	if r == nil || !r.armed.Load() {
		return
	}
	r.cut(time.Since(r.t0).Milliseconds())
}

// cut snapshots the registry, diffs against the previous snapshot, and
// appends the window. The onWindow callback runs after the lock is
// released so it can call WindowLookup.
func (r *SeriesRecorder) cut(t int64) {
	r.mu.Lock()
	cur := r.reg.Snapshot()
	w := seriesDiff(&r.prev, &cur)
	w.I = int64(len(r.windows)) + r.dropped
	w.T = t
	if len(r.windows) >= maxSeriesWindows {
		r.dropped++
	} else {
		r.windows = append(r.windows, w)
		for _, c := range w.Counters {
			r.seenCounters[c.Name] = true
		}
		for _, h := range w.Histograms {
			r.seenHists[h.Name] = true
		}
	}
	r.prev = cur
	cb := r.onWindow
	r.mu.Unlock()
	if cb != nil {
		cb(t)
	}
}

// seriesDiff renders the activity between two snapshots as a window.
// Both snapshots are sorted by name per class, so the output order is
// deterministic without re-sorting.
func seriesDiff(prev, cur *Snapshot) SeriesWindow {
	var w SeriesWindow
	pc := make(map[string]int64, len(prev.Counters))
	for _, c := range prev.Counters {
		pc[c.Name] = c.Value
	}
	for _, c := range cur.Counters {
		if d := c.Value - pc[c.Name]; d != 0 {
			w.Counters = append(w.Counters, CounterValue{Name: c.Name, Value: d})
		}
	}
	if len(cur.Gauges) > 0 {
		w.Gauges = append([]GaugeValue{}, cur.Gauges...)
	}
	ph := make(map[string]*HistogramValue, len(prev.Histograms))
	for i := range prev.Histograms {
		ph[prev.Histograms[i].Name] = &prev.Histograms[i]
	}
	scratch := make([]int64, 0, 16)
	for i := range cur.Histograms {
		h := &cur.Histograms[i]
		p := ph[h.Name]
		dc, ds := h.Count, h.Sum
		if p != nil {
			dc -= p.Count
			ds -= p.Sum
		}
		if dc == 0 {
			continue
		}
		counts := scratch[:0]
		for j, c := range h.Counts {
			if p != nil && j < len(p.Counts) {
				c -= p.Counts[j]
			}
			counts = append(counts, c)
		}
		w.Histograms = append(w.Histograms, SeriesHist{
			Name:  h.Name,
			Count: dc,
			Sum:   ds,
			P50:   BucketQuantile(h.Bounds, counts, 0.50),
			P95:   BucketQuantile(h.Bounds, counts, 0.95),
			P99:   BucketQuantile(h.Bounds, counts, 0.99),
		})
		scratch = counts[:0]
	}
	return w
}

// WindowLookup resolves a rule's (metric, agg) pair over the trailing n
// windows: counters sum their deltas, gauges answer the most recent
// window's value, histograms aggregate their per-window delta
// count/sum. ok=false when fewer than n windows exist yet (burn-rate
// rules stay silent until their slow window has real history) or the
// metric was never seen, and for n <= 0 (no run totals here). Shaped
// for slo.Lookup.
func (r *SeriesRecorder) WindowLookup(metric, agg string, n int) (float64, bool) {
	if r == nil {
		return 0, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if n <= 0 || len(r.windows) < n {
		return 0, false
	}
	tail := r.windows[len(r.windows)-n:]
	switch agg {
	case "", "value":
		if r.seenCounters[metric] {
			var sum int64
			for i := range tail {
				for _, c := range tail[i].Counters {
					if c.Name == metric {
						sum += c.Value
					}
				}
			}
			return float64(sum), true
		}
		for _, g := range tail[len(tail)-1].Gauges {
			if g.Name == metric {
				return g.Value, true
			}
		}
	case "count", "sum", "mean":
		if !r.seenHists[metric] {
			return 0, false
		}
		var cnt, sum int64
		for i := range tail {
			for _, h := range tail[i].Histograms {
				if h.Name == metric {
					cnt += h.Count
					sum += h.Sum
				}
			}
		}
		switch agg {
		case "count":
			return float64(cnt), true
		case "sum":
			return float64(sum), true
		case "mean":
			if cnt == 0 {
				return 0, false
			}
			return float64(sum) / float64(cnt), true
		}
	}
	return 0, false
}

// Windows returns a copy of the recorded windows.
func (r *SeriesRecorder) Windows() []SeriesWindow {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SeriesWindow, len(r.windows))
	copy(out, r.windows)
	return out
}

// Dropped reports how many windows were discarded after the cap.
func (r *SeriesRecorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// WriteJSONL writes the recorded windows one JSON object per line, in
// cut order. Field order is fixed by the struct layout and window order
// by the tick sequence, so t_sim-keyed output is byte-identical across
// worker counts.
func (r *SeriesRecorder) WriteJSONL(w io.Writer) error {
	for _, win := range r.Windows() {
		blob, err := json.Marshal(win)
		if err != nil {
			return err
		}
		if _, err := w.Write(append(blob, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// DefaultSeries is the process-wide recorder the CLI arms for -series.
var DefaultSeries = &SeriesRecorder{}

// SeriesTick cuts a window on the default recorder, keyed by model
// time. Disarmed cost: one atomic load and a branch.
func SeriesTick(t int64) { DefaultSeries.Tick(t) }
