package fleet

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Live progress for the obs /progress endpoint. One tracker per
// process, last sim wins — the same registration discipline as the
// sweep runner's progress source. All fields are atomics: the tracker
// is written from the coordinator and read from the HTTP goroutine.
var prog struct {
	active  atomic.Bool
	label   atomic.Value // string
	workers atomic.Int64
	epochs  atomic.Int64
	epoch   atomic.Int64
	startNS atomic.Int64
}

func progStart(label string, workers int, epochs int64) {
	prog.label.Store(label)
	prog.workers.Store(int64(workers))
	prog.epochs.Store(epochs)
	prog.epoch.Store(0)
	prog.startNS.Store(time.Now().UnixNano())
	prog.active.Store(true)
}

func progEpoch(epoch int64) { prog.epoch.Store(epoch) }

func progDone() { prog.active.Store(false) }

// progress reports the run's epochs done of its total for
// obs.SetProgressSource. Wall time appears only here — never in figures
// or the journal — so live introspection cannot perturb determinism.
func progress() obs.Progress {
	label, _ := prog.label.Load().(string)
	p := obs.Progress{
		Active:  prog.active.Load(),
		Label:   "fleet " + label,
		Unit:    "epochs",
		Total:   prog.epochs.Load(),
		Done:    prog.epoch.Load(),
		Workers: int(prog.workers.Load()),
	}
	var start time.Time
	if ns := prog.startNS.Load(); ns > 0 {
		start = time.Unix(0, ns)
	}
	return p.Timed(start)
}
