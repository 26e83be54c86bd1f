package par

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Live sweep progress for the obs /progress endpoint. run() publishes a
// fresh tracker per sweep; workers bump per-worker atomic counters, so
// the accounting adds two atomic increments per task. Concurrent sweeps
// (rare outside tests) follow last-started-wins, which is the right
// behavior for a monitor: it shows what the process is doing now.
type tracker struct {
	sweep  int64
	total  int64
	start  time.Time
	done   atomic.Int64
	perW   []atomic.Int64
	active atomic.Bool
}

var (
	progMu   sync.Mutex
	progCur  *tracker
	sweepSeq atomic.Int64
)

// beginSweep publishes a tracker for a starting sweep.
func beginSweep(workers, n int) *tracker {
	t := &tracker{
		sweep: sweepSeq.Add(1),
		total: int64(n),
		start: time.Now(),
		perW:  make([]atomic.Int64, workers),
	}
	t.active.Store(true)
	progMu.Lock()
	progCur = t
	progMu.Unlock()
	return t
}

// endSweep marks t finished; it stays visible (inactive) until the next
// sweep replaces it, so /progress keeps reporting the final state.
func (t *tracker) endSweep() { t.active.Store(false) }

func init() {
	obs.SetProgressSource(Progress)
}

// Progress reports the current sweep for the /progress endpoint: tasks
// done of the sweep's total, with per-worker completion counts. With no
// sweep started yet it is the zero, inactive Progress.
func Progress() obs.Progress {
	progMu.Lock()
	t := progCur
	progMu.Unlock()
	if t == nil {
		return obs.Progress{}
	}
	p := obs.Progress{
		Active:    t.active.Load(),
		Sweep:     t.sweep,
		Total:     t.total,
		Done:      t.done.Load(),
		Workers:   len(t.perW),
		PerWorker: make([]int64, len(t.perW)),
	}
	for i := range t.perW {
		p.PerWorker[i] = t.perW[i].Load()
	}
	return p.Timed(t.start)
}
