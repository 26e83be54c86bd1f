// Package fleet is a sharded discrete-event simulator that drives
// appliance populations of 10^5–10^6 devices through their whole
// security lifecycle — handshake, transactions, sleep, battery death —
// over lossy chaos-model channels, at fleet scale the paper could only
// gesture at.
//
// Architecture:
//
//   - Devices are partitioned into contiguous shards. Each shard owns a
//     binary event heap keyed by (t_sim, device id) — the same total
//     order the obs/journal merge uses — and at most one pending event
//     per device, so scheduler memory is O(devices), never O(events).
//   - Shards execute an epoch (a fixed t_sim window) in parallel; all
//     cross-device coupling — cell congestion feedback, epidemic key
//     compromise — propagates only at epoch barriers from the previous
//     epoch's state. Every stochastic draw comes from a per-device
//     splitmix64 stream seeded by (scenario seed, device id). Together
//     these make a run's output a pure function of the scenario:
//     byte-identical at any worker count and any shard count.
//   - Costs are integer microjoules from the calibrated internal/cost
//     tables, summed into per-shard accumulators and flushed at each
//     barrier into an aggregate energy.Battery ledger, obs metrics, and
//     the energy profiler — accounting work is O(epochs), not O(events).
//
// Channel semantics (Gilbert–Elliott burst state, loss composition, BER
// corruption) are shared with internal/chaos; epidemic key compromise is
// the FMS/KoreK WEP break of internal/attack/wepattack, abstracted to a
// frames-to-compromise budget (see CalibrateFMSFrames).
package fleet

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/energy"
	"repro/internal/obs"
	"repro/internal/obs/journal"
	"repro/internal/obs/prof"
)

// capturedDone marks a device whose key has fallen (or is pending the
// epoch barrier); it stops accumulating captured frames.
const capturedDone = ^uint32(0)

// Config tunes the execution of a run. It never changes the result:
// shard and worker counts partition work, not behavior.
type Config struct {
	// Shards is the device-partition count (default 16, clamped to the
	// device count).
	Shards int
	// Workers bounds the goroutines executing shards within an epoch
	// (default GOMAXPROCS, clamped to Shards).
	Workers int
	// SampleEvery sets how many epochs separate time-series samples
	// (default: horizon/64 epochs, so every run yields ~64 rows).
	SampleEvery int
	// Label names the run in journal events and figures (default the
	// scenario name); the gap harness uses "secure" and "plain".
	Label string

	// eventHook observes every executed event; test instrumentation for
	// the event-order property tests. Deterministic ordering of calls is
	// only guaranteed with Workers=1.
	eventHook func(t int64, dev int32, kind uint8)
}

// EpochStat is one sampled row of the fleet time series.
type EpochStat struct {
	T           int64 // epoch end, t_sim ticks
	Alive       int64
	Dead        int64
	Compromised int64
	Util        float64 // worst cell utilization during the epoch
	EnergyJ     float64 // cumulative fleet drain
}

// Result is the deterministic outcome of a run.
type Result struct {
	Scenario     string
	Label        string
	Devices      int
	HorizonTicks int64
	Epochs       int64

	Events             int64
	Handshakes         int64
	HandshakeResumes   int64
	HandshakeFails     int64
	WastedWakes        int64
	Transactions       int64
	TransactionsFailed int64
	Frames             int64
	Retransmits        int64
	FrameFails         int64
	CongestionDrops    int64
	Deaths             int64
	EarlyDeaths        int64
	Compromised        int64

	PeakUtil float64
	EnergyJ  map[string]float64 // ledger category -> joules
	Series   []EpochStat
}

// Alive returns the devices still alive at the end of the run.
func (r *Result) Alive() int64 { return int64(r.Devices) - r.Deaths }

// TotalEnergyJ sums the ledger.
func (r *Result) TotalEnergyJ() float64 {
	var t float64
	for _, v := range r.EnergyJ {
		t += v
	}
	return t
}

// Sim is a fleet simulation in progress. Create with NewSim, advance
// with StepEpoch (or use Run), read with Result.
type Sim struct {
	c   *compiled
	cfg Config
	epi *EpidemicSpec // nil when disabled (or scenario is Insecure)

	devs   []device
	shards []*shard

	// Cross-shard state, read-only during an epoch, updated at barriers.
	comp       []uint64  // compromised bitset
	compCell   []int32   // compromised devices per cell
	collP      []float64 // per-cell collision probability for this epoch
	cellOff    []int64   // barrier scratch: per-cell offered bytes
	thresholdQ uint32    // epidemic capture threshold in quarter-frames

	nCells  int
	epoch   int64
	nEpochs int64
	done    bool

	battery    *energy.Battery
	drainBatch []energy.CategoryJoules

	totEnergyUJ [nCat]int64
	totCnt      [nCnt]int64
	compromised int64
	peakUtil    float64
	series      []EpochStat
	sampleEvery int64
	deadMile    int
	compMile    int
}

// milestonePcts are the journaled fleet death/compromise milestones.
var milestonePcts = [...]int{1, 10, 25, 50, 75, 90, 99}

// NewSim compiles the scenario and builds the initial fleet: device
// states, per-shard heaps seeded with each device's first wake, the
// aggregate battery ledger, and the live /progress source.
func NewSim(sc *Scenario, cfg Config) (*Sim, error) {
	c, err := compile(sc)
	if err != nil {
		return nil, err
	}
	if cfg.Shards == 0 {
		cfg.Shards = 16
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("fleet: shard count %d must be positive", cfg.Shards)
	}
	if cfg.Shards > sc.Devices {
		cfg.Shards = sc.Devices
	}
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("fleet: worker count %d must be positive", cfg.Workers)
	}
	if cfg.Workers > cfg.Shards {
		cfg.Workers = cfg.Shards
	}
	if cfg.Label == "" {
		cfg.Label = sc.Name
	}

	s := &Sim{c: c, cfg: cfg}
	if sc.Epidemic != nil && !sc.Insecure {
		s.epi = sc.Epidemic
		s.thresholdQ = uint32(sc.Epidemic.FramesToCompromise) * 4
	}
	s.nCells = (sc.Devices + sc.CellSize - 1) / sc.CellSize
	s.comp = make([]uint64, (sc.Devices+63)/64)
	s.compCell = make([]int32, s.nCells)
	s.collP = make([]float64, s.nCells)
	s.cellOff = make([]int64, s.nCells)
	s.nEpochs = (sc.HorizonTicks + sc.EpochTicks - 1) / sc.EpochTicks
	s.sampleEvery = int64(cfg.SampleEvery)
	if s.sampleEvery == 0 {
		s.sampleEvery = s.nEpochs / 64
	}
	if s.sampleEvery < 1 {
		s.sampleEvery = 1
	}

	s.battery, err = energy.NewBattery(c.totalBatteryJ)
	if err != nil {
		return nil, err
	}

	s.devs = make([]device, sc.Devices)
	perShard := (sc.Devices + cfg.Shards - 1) / cfg.Shards
	for lo := 0; lo < sc.Devices; lo += perShard {
		hi := lo + perShard
		if hi > sc.Devices {
			hi = sc.Devices
		}
		sh := &shard{
			lo: int32(lo), hi: int32(hi),
			cellLo: int32(lo / sc.CellSize),
			cellHi: int32((hi - 1) / sc.CellSize),
		}
		sh.offered = make([]int64, sh.cellHi-sh.cellLo+1)
		sh.heap = make(evHeap, 0, hi-lo)
		for dev := sh.lo; dev < sh.hi; dev++ {
			d := &s.devs[dev]
			d.class = c.classOf(dev)
			d.rng = seedDevice(sc.Seed, dev)
			d.battUJ = c.classes[d.class].batteryUJ
			// First wake staggered across one period: cold fleets do not
			// synchronize their first transmission.
			t0 := d.randN(c.classes[d.class].wakePeriod)
			if t0 < sc.HorizonTicks {
				sh.heap.push(event{t: t0, dev: dev, kind: evWake})
			}
		}
		s.shards = append(s.shards, sh)
	}

	// Epidemic patient zeros, spread uniformly over the id space.
	if s.epi != nil {
		for i := 0; i < s.epi.Seeds; i++ {
			dev := int32(i * sc.Devices / s.epi.Seeds)
			if !s.isComp(dev) {
				s.setComp(dev)
				s.compromised++
			}
		}
	}

	obs.SetProgressSource(progress)
	progStart(cfg.Label, cfg.Workers, s.nEpochs)

	journal.Emit(0, journal.LevelInfo, "fleet", "run_start",
		journal.S("scenario", sc.Name),
		journal.S("label", cfg.Label),
		journal.I("devices", int64(sc.Devices)),
		journal.I("horizon_ticks", sc.HorizonTicks),
		journal.I("classes", int64(len(sc.Classes))),
		journal.B("insecure", sc.Insecure),
		journal.B("epidemic", s.epi != nil))
	return s, nil
}

func (s *Sim) isComp(dev int32) bool { return s.comp[dev>>6]&(1<<(uint(dev)&63)) != 0 }
func (s *Sim) setComp(dev int32) {
	s.comp[dev>>6] |= 1 << (uint(dev) & 63)
	s.compCell[int(dev)/s.c.sc.CellSize]++
}

// Run executes a scenario to completion.
func Run(sc *Scenario, cfg Config) (*Result, error) {
	sim, err := NewSim(sc, cfg)
	if err != nil {
		return nil, err
	}
	for !sim.StepEpoch() {
	}
	return sim.Result(), nil
}

// StepEpoch advances the simulation by one epoch: parallel shard
// execution up to the epoch boundary, then the deterministic barrier
// merge. It returns true once the run is finished (horizon reached or
// every heap drained).
func (s *Sim) StepEpoch() bool {
	if s.done {
		return true
	}
	horizon := s.c.sc.HorizonTicks
	tStart := s.epoch * s.c.sc.EpochTicks
	tEnd := tStart + s.c.sc.EpochTicks
	if tEnd > horizon {
		tEnd = horizon
	}

	if s.cfg.Workers <= 1 || len(s.shards) == 1 {
		for _, sh := range s.shards {
			s.runShard(sh, tEnd)
		}
	} else {
		var next atomic.Int32
		var wg sync.WaitGroup
		for w := 0; w < s.cfg.Workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(s.shards) {
						return
					}
					s.runShard(s.shards[i], tEnd)
				}
			}()
		}
		wg.Wait()
	}

	pending := s.mergeEpoch(tStart, tEnd)
	s.epoch++
	if tEnd >= horizon || !pending {
		s.finish(tEnd)
	}
	return s.done
}

// runShard executes one shard's events with t_sim < tEnd in (t, dev)
// order. Handlers may push follow-up events into the same window; the
// heap keeps the order honest.
func (s *Sim) runShard(sh *shard, tEnd int64) {
	h := &sh.heap
	for len(*h) > 0 && (*h)[0].t < tEnd {
		ev := h.pop()
		d := &s.devs[ev.dev]
		if d.state == stDead {
			continue
		}
		sh.acc.n[cEvents]++
		if s.cfg.eventHook != nil {
			s.cfg.eventHook(ev.t, ev.dev, ev.kind)
		}
		switch ev.kind {
		case evWake:
			s.handleWake(sh, d, ev.dev, ev.t)
		case evTransact:
			s.handleTransact(sh, d, ev.dev, ev.t)
		}
	}
	sh.acc.anyPending = len(*h) > 0
}

// push schedules e unless it lands past the horizon.
func (s *Sim) push(sh *shard, e event) {
	if e.t < s.c.sc.HorizonTicks {
		sh.heap.push(e)
	}
}

// drain spends uJ from the device battery under the given ledger
// category. On exhaustion the device dies — the partial remainder is
// still accounted — and drain returns false.
func (s *Sim) drain(sh *shard, d *device, dev int32, cat int, uJ int64) bool {
	d.battUJ -= uJ
	if d.battUJ < 0 {
		if consumed := uJ + d.battUJ; consumed > 0 {
			sh.acc.energyUJ[cat] += consumed
		}
		d.state = stDead
		sh.acc.n[cDeaths]++
		if d.wakes <= 1 {
			sh.acc.n[cEarlyDeaths]++
		}
		return false
	}
	sh.acc.energyUJ[cat] += uJ
	return true
}

// captureWeight returns the quarter-frames a compromised listener
// overhears per frame this device sends: 4 (full rate) with a
// compromised device in its own cell, 1 with one only in an adjacent
// cell, 0 otherwise.
func (s *Sim) captureWeight(dev int32) uint32 {
	cell := int(dev) / s.c.sc.CellSize
	if s.compCell[cell] > 0 {
		return 4
	}
	if cell > 0 && s.compCell[cell-1] > 0 {
		return 1
	}
	if cell+1 < s.nCells && s.compCell[cell+1] > 0 {
		return 1
	}
	return 0
}

// frame prices one frame and its retransmissions on the device's
// channel: radio energy per attempt, offered bytes on the cell, burst
// state evolution, loss composed from channel loss, collision
// probability and BER corruption. Returns delivered=false when the
// retry cap abandoned the frame, alive=false when the battery died.
func (s *Sim) frame(sh *shard, cc *classCost, d *device, dev int32, off *int64, collP float64, tx bool, wq uint32) (delivered, alive bool) {
	uJ, cat := cc.rxUJPerFrm, catRadioRx
	if tx {
		uJ, cat = cc.txUJPerFrm, catRadioTx
	}
	for attempt := 1; ; attempt++ {
		sh.acc.n[cFrames]++
		c := cat
		if attempt > 1 {
			sh.acc.n[cRetransmits]++
			c = catRetransmit
		}
		*off += int64(s.c.sc.FrameBytes)
		if wq != 0 && d.captured != capturedDone {
			d.captured += wq
		}
		if !s.drain(sh, d, dev, c, uJ) {
			return false, false
		}
		if s.c.burst != nil {
			d.gebad = s.c.burst.Step(d.gebad, d.randF())
		}
		pFail := 1 - (1-s.c.channel.LossProb(d.gebad))*(1-collP)*(1-s.c.corruptP)
		if d.randF() >= pFail {
			return true, true
		}
		sh.acc.n[cFrameFails]++
		if collP > 0 {
			sh.acc.n[cCongestionDrops]++
		}
		if attempt > s.c.sc.RetryCap {
			return false, true
		}
	}
}

// checkCompromise promotes a device whose leaked-frame budget is spent;
// the actual bit flips at the next barrier so all shards observe the
// same epidemic state within an epoch.
func (s *Sim) checkCompromise(sh *shard, d *device, dev int32) {
	if s.epi == nil || d.captured == capturedDone || s.isComp(dev) {
		return
	}
	if d.captured >= s.thresholdQ {
		d.captured = capturedDone
		sh.acc.newlyComp = append(sh.acc.newlyComp, dev)
	}
}

// scheduleWake puts the device to sleep until its next (possibly
// diurnally modulated, jittered) wake.
func (s *Sim) scheduleWake(sh *shard, d *device, dev int32, t int64) {
	cc := &s.c.classes[d.class]
	p := cc.period(t, s.c.sc.DayTicks)
	if cc.jitterTicks > 0 {
		p += d.randN(cc.jitterTicks + 1)
	}
	d.state = stAsleep
	s.push(sh, event{t: t + p, dev: dev, kind: evWake})
}

// handleWake performs the security handshake (full or abbreviated, with
// channel-loss retries) and schedules the transaction burst.
func (s *Sim) handleWake(sh *shard, d *device, dev int32, t int64) {
	cc := &s.c.classes[d.class]
	d.wakes++
	cell := int32(int(dev) / s.c.sc.CellSize)
	off := &sh.offered[cell-int32(sh.cellLo)]
	collP := s.collP[cell]
	var wq uint32
	if s.epi != nil && d.captured != capturedDone && !s.isComp(dev) {
		wq = s.captureWeight(dev)
	}

	ok := true
	if cc.hsFrames > 0 {
		ok = false
		resume := d.randF() < cc.resumeRatio
		hsUJ := cc.hsFullUJ
		if resume {
			hsUJ = cc.hsResumeUJ
		}
		// One retry: a failed handshake re-runs the crypto too.
		for attempt := 0; attempt < 2 && !ok; attempt++ {
			if !s.drain(sh, d, dev, catHandshake, hsUJ) {
				return
			}
			ok = true
			for f := 0; f < cc.hsFrames; f++ {
				delivered, alive := s.frame(sh, cc, d, dev, off, collP, f%2 == 0, wq)
				if !alive {
					return
				}
				if !delivered {
					ok = false
					break
				}
			}
			if ok {
				sh.acc.n[cHandshakes]++
				if resume {
					sh.acc.n[cResumes]++
				}
			} else {
				sh.acc.n[cHandshakeFails]++
			}
		}
	}
	s.checkCompromise(sh, d, dev)
	if !ok {
		sh.acc.n[cWastedWakes]++
		s.scheduleWake(sh, d, dev, t)
		return
	}
	d.state = stAwake
	s.push(sh, event{t: t + int64(cc.hsFrames) + 1, dev: dev, kind: evTransact})
}

// handleTransact runs the wake's transaction burst, the compromised
// device's attack amplification, and schedules the next wake.
func (s *Sim) handleTransact(sh *shard, d *device, dev int32, t int64) {
	cc := &s.c.classes[d.class]
	cell := int32(int(dev) / s.c.sc.CellSize)
	off := &sh.offered[cell-int32(sh.cellLo)]
	collP := s.collP[cell]
	comp := s.epi != nil && s.isComp(dev)
	var wq uint32
	if s.epi != nil && d.captured != capturedDone && !comp {
		wq = s.captureWeight(dev)
	}

	for i := 0; i < cc.txPerWake; i++ {
		if cc.bulkUJPerTx > 0 && !s.drain(sh, d, dev, catBulk, cc.bulkUJPerTx) {
			return
		}
		okTx := true
		for f := 0; f < cc.txFrames && okTx; f++ {
			delivered, alive := s.frame(sh, cc, d, dev, off, collP, true, wq)
			if !alive {
				return
			}
			okTx = delivered
		}
		for f := 0; f < cc.rxFrames && okTx; f++ {
			delivered, alive := s.frame(sh, cc, d, dev, off, collP, false, wq)
			if !alive {
				return
			}
			okTx = delivered
		}
		if okTx {
			d.tx++
			sh.acc.n[cTransactions]++
		} else {
			sh.acc.n[cTxFailed]++
		}
	}

	// A compromised device moonlights as an attacker: injected traffic
	// steals cell airtime (congestion) and burns its own battery — the
	// paper's sleep-deprivation battery attack, self-inflicted.
	if comp && s.epi.AmplifyBytes > 0 {
		n := frames(s.epi.AmplifyBytes, s.c.sc.FrameBytes)
		*off += int64(s.epi.AmplifyBytes)
		if !s.drain(sh, d, dev, catAttack, int64(n)*cc.txUJPerFrm) {
			return
		}
	}
	s.checkCompromise(sh, d, dev)
	s.scheduleWake(sh, d, dev, t)
}

// mergeEpoch is the deterministic barrier: offered load folds into
// next epoch's per-cell collision probabilities, pending compromises
// flip in sorted order, accumulators flush into the battery ledger,
// metrics and profiler, and sampled epochs land in the series and the
// journal. Runs single-threaded; every iteration is in fixed order, so
// its effects are independent of shard and worker counts.
func (s *Sim) mergeEpoch(tStart, tEnd int64) (pending bool) {
	sc := s.c.sc

	// Congestion feedback for the next epoch.
	clear(s.cellOff)
	for _, sh := range s.shards {
		for i, v := range sh.offered {
			s.cellOff[int(sh.cellLo)+i] += v
			sh.offered[i] = 0
		}
	}
	window := float64(tEnd-tStart) * sc.CellCapacityBytesPerTick
	epochUtil := 0.0
	for cell, offBytes := range s.cellOff {
		util := float64(offBytes) / window
		if util > epochUtil {
			epochUtil = util
		}
		p := 0.0
		if util > 1 {
			p = 1 - 1/util
			if p > 0.9 {
				p = 0.9
			}
		}
		s.collP[cell] = p
	}
	if epochUtil > s.peakUtil {
		s.peakUtil = epochUtil
	}

	// Epidemic spread becomes visible fleet-wide next epoch.
	var fell []int32
	for _, sh := range s.shards {
		fell = append(fell, sh.acc.newlyComp...)
	}
	if len(fell) > 0 {
		sort.Slice(fell, func(i, j int) bool { return fell[i] < fell[j] })
		for _, dev := range fell {
			s.setComp(dev)
		}
		s.compromised += int64(len(fell))
	}

	// Batched accounting flush.
	var epochUJ [nCat]int64
	for _, sh := range s.shards {
		for i, v := range sh.acc.energyUJ {
			epochUJ[i] += v
		}
		for i, v := range sh.acc.n {
			s.totCnt[i] += v
		}
		pending = pending || sh.acc.anyPending
		sh.acc.reset()
	}
	s.drainBatch = s.drainBatch[:0]
	for i, uj := range epochUJ {
		if uj == 0 {
			continue
		}
		s.totEnergyUJ[i] += uj
		s.drainBatch = append(s.drainBatch, energy.CategoryJoules{
			Category: catNames[i], Joules: float64(uj) / 1e6,
		})
	}
	if len(s.drainBatch) > 0 {
		// The aggregate ledger cannot overdrain: per-device spend is
		// bounded by per-device capacity, but surface any model bug.
		if err := s.battery.DrainBatch(s.drainBatch); err != nil {
			journal.Emit(tEnd, journal.LevelCrit, "fleet", "ledger_overdrain",
				journal.S("error", err.Error()))
		}
	}
	if obs.Enabled() {
		for i, v := range epochUJ {
			if v != 0 {
				mCat[i].Add(v)
			}
		}
		// Counters are flushed incrementally so /metrics and SLO
		// evaluation see live totals; recompute the deltas cheaply.
		for i := range cntDelta {
			cntDelta[i] = s.totCnt[i] - cntFlushed[i]
		}
		for i, v := range cntDelta {
			if v != 0 {
				mCnt[i].Add(v)
				cntFlushed[i] += v
			}
		}
	}
	if prof.Enabled() {
		for i, v := range epochUJ {
			if v != 0 {
				pCat[i].AddEnergyUJ(v)
			}
		}
	}

	dead := s.totCnt[cDeaths]
	alive := int64(sc.Devices) - dead
	s.emitMilestones(tEnd, dead)

	// Time-series sample (always on the final epoch).
	if (s.epoch+1)%s.sampleEvery == 0 || tEnd >= sc.HorizonTicks || !pending {
		st := EpochStat{
			T: tEnd, Alive: alive, Dead: dead, Compromised: s.compromised,
			Util: epochUtil, EnergyJ: s.energyJ(),
		}
		s.series = append(s.series, st)
		journal.Emit(tEnd, journal.LevelInfo, "fleet", "epoch",
			journal.I("alive", st.Alive),
			journal.I("dead", st.Dead),
			journal.I("compromised", st.Compromised),
			journal.F("util", st.Util),
			journal.F("energy_j", st.EnergyJ))
		// Cut a metric time-series window at the same deterministic
		// t_sim: the barrier runs single-threaded after the counter
		// flush above, so the window contents are independent of
		// -workers/-shards and the -series file byte-diffs in CI.
		// Disarmed cost is one atomic load.
		obs.SeriesTick(tEnd)
	}

	progEpoch(s.epoch + 1)
	return pending
}

// cntDelta/cntFlushed track what the incremental metric flush already
// published. Package-scoped scratch: mergeEpoch is single-threaded and
// sims do not run concurrently in one process (last-wins, like the
// progress tracker).
var cntDelta, cntFlushed [nCnt]int64

// emitMilestones journals fleet death and compromise percentage
// milestones as they are crossed.
func (s *Sim) emitMilestones(t, dead int64) {
	devs := int64(s.c.sc.Devices)
	for s.deadMile < len(milestonePcts) && dead*100 >= int64(milestonePcts[s.deadMile])*devs {
		journal.Emit(t, journal.LevelWarn, "fleet", "death_milestone",
			journal.I("pct", int64(milestonePcts[s.deadMile])),
			journal.I("dead", dead))
		s.deadMile++
	}
	for s.compMile < len(milestonePcts) && s.compromised*100 >= int64(milestonePcts[s.compMile])*devs {
		journal.Emit(t, journal.LevelWarn, "fleet", "compromise_milestone",
			journal.I("pct", int64(milestonePcts[s.compMile])),
			journal.I("compromised", s.compromised))
		s.compMile++
	}
}

// energyJ is the cumulative fleet drain in joules.
func (s *Sim) energyJ() float64 {
	var uj int64
	for _, v := range s.totEnergyUJ {
		uj += v
	}
	return float64(uj) / 1e6
}

// finish seals the run: end-of-run journal record and progress state.
func (s *Sim) finish(tEnd int64) {
	if s.done {
		return
	}
	s.done = true
	journal.Emit(tEnd, journal.LevelInfo, "fleet", "run_done",
		journal.S("label", s.cfg.Label),
		journal.I("deaths", s.totCnt[cDeaths]),
		journal.I("compromised", s.compromised),
		journal.I("transactions", s.totCnt[cTransactions]),
		journal.I("handshakes", s.totCnt[cHandshakes]),
		journal.I("events", s.totCnt[cEvents]),
		journal.F("peak_util", s.peakUtil),
		journal.F("energy_j", s.energyJ()))
	progDone()
}

// EventsProcessed reports how many events the run has executed so far —
// the numerator of the BenchmarkFleetStep events/s metric.
func (s *Sim) EventsProcessed() int64 { return s.totCnt[cEvents] }

// Done reports whether the run has finished.
func (s *Sim) Done() bool { return s.done }

// Result snapshots the run outcome. Call after Run or once StepEpoch
// reports completion (intermediate snapshots are valid but partial).
func (s *Sim) Result() *Result {
	sc := s.c.sc
	r := &Result{
		Scenario:     sc.Name,
		Label:        s.cfg.Label,
		Devices:      sc.Devices,
		HorizonTicks: sc.HorizonTicks,
		Epochs:       s.epoch,

		Events:             s.totCnt[cEvents],
		Handshakes:         s.totCnt[cHandshakes],
		HandshakeResumes:   s.totCnt[cResumes],
		HandshakeFails:     s.totCnt[cHandshakeFails],
		WastedWakes:        s.totCnt[cWastedWakes],
		Transactions:       s.totCnt[cTransactions],
		TransactionsFailed: s.totCnt[cTxFailed],
		Frames:             s.totCnt[cFrames],
		Retransmits:        s.totCnt[cRetransmits],
		FrameFails:         s.totCnt[cFrameFails],
		CongestionDrops:    s.totCnt[cCongestionDrops],
		Deaths:             s.totCnt[cDeaths],
		EarlyDeaths:        s.totCnt[cEarlyDeaths],
		Compromised:        s.compromised,

		PeakUtil: s.peakUtil,
		EnergyJ:  make(map[string]float64, nCat),
	}
	for i, uj := range s.totEnergyUJ {
		if uj != 0 {
			r.EnergyJ[catNames[i]] = float64(uj) / 1e6
		}
	}
	r.Series = append([]EpochStat(nil), s.series...)
	return r
}

// Battery exposes the aggregate fleet ledger (tests assert the batched
// flush math against it).
func (s *Sim) Battery() *energy.Battery { return s.battery }
