package obs

import (
	"sync/atomic"
)

// progressSource is the process-wide /progress JSON provider. The sweep
// engine (internal/par) registers itself at init; the fleet simulator,
// gateway and load generator register theirs when they start, which may
// be after the debug server is up, so the server resolves it on every
// request. Registering here keeps obs free of imports back into them.
var progressSource atomic.Value // of func() []byte

// SetProgressSource registers fn as the /progress payload provider.
// Later registrations win; nil is ignored.
func SetProgressSource(fn func() []byte) {
	if fn != nil {
		progressSource.Store(fn)
	}
}

// ProgressSource returns the registered /progress provider, or nil.
func ProgressSource() func() []byte {
	fn, _ := progressSource.Load().(func() []byte)
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
