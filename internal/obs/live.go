package obs

import (
	"sync/atomic"
	"time"
)

// Progress is the one /progress payload shape, marshaled with
// encoding/json: how many units of a run are done out of how many. The
// sweep engine counts tasks, the fleet simulator epochs, and the gateway
// and load generator sessions.
type Progress struct {
	Active bool `json:"active"`
	// Label names what is progressing ("" for a parallel sweep, which is
	// named by its Sweep number instead).
	Label string `json:"label,omitempty"`
	Sweep int64  `json:"sweep"`
	// Unit names what Total and Done count ("" means tasks).
	Unit      string  `json:"unit,omitempty"`
	Total     int64   `json:"total"`
	Done      int64   `json:"done"`
	Workers   int     `json:"workers"`
	PerWorker []int64 `json:"per_worker,omitempty"`
	ElapsedMS int64   `json:"elapsed_ms"`
	// ETAMS extrapolates from the units done so far; -1 before the
	// first one finishes.
	ETAMS  int64   `json:"eta_ms"`
	PerSec float64 `json:"tasks_per_sec"`
}

// Timed fills the derived fields (elapsed, rate, ETA) of a run that
// started at start; a zero start leaves them unset with ETA -1.
func (p Progress) Timed(start time.Time) Progress {
	p.ETAMS = -1
	if start.IsZero() {
		return p
	}
	elapsed := time.Since(start)
	p.ElapsedMS = elapsed.Milliseconds()
	if sec := elapsed.Seconds(); sec > 0 {
		p.PerSec = float64(p.Done) / sec
	}
	if p.Done > 0 {
		p.ETAMS = p.ElapsedMS * (p.Total - p.Done) / p.Done
	}
	return p
}

// progressSource is the process-wide /progress provider. The sweep
// engine (internal/par) registers itself at init; the fleet simulator,
// gateway and load generator register theirs when they start, which may
// be after the debug server is up, so the server resolves it on every
// request. Registering here keeps obs free of imports back into them.
var progressSource atomic.Value // of func() Progress

// SetProgressSource registers fn as the /progress provider. Later
// registrations win; nil is ignored.
func SetProgressSource(fn func() Progress) {
	if fn != nil {
		progressSource.Store(fn)
	}
}

// ProgressSource returns the registered /progress provider, or nil.
func ProgressSource() func() Progress {
	fn, _ := progressSource.Load().(func() Progress)
	return fn
}

// Lookup resolves an SLO rule's (metric, aggregation) pair against the
// snapshot: counters and gauges answer the default "value" aggregation,
// histograms answer count/sum/mean. ok=false means the metric was not
// observed by this run, which skips the rule rather than firing it.
func (s *Snapshot) Lookup(metric, agg string) (float64, bool) {
	switch agg {
	case "", "value":
		for _, c := range s.Counters {
			if c.Name == metric {
				return float64(c.Value), true
			}
		}
		for _, g := range s.Gauges {
			if g.Name == metric {
				return g.Value, true
			}
		}
	case "count", "sum", "mean":
		for _, h := range s.Histograms {
			if h.Name != metric {
				continue
			}
			switch agg {
			case "count":
				return float64(h.Count), true
			case "sum":
				return float64(h.Sum), true
			case "mean":
				if h.Count == 0 {
					return 0, false
				}
				return float64(h.Sum) / float64(h.Count), true
			}
		}
	}
	return 0, false
}
