package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"time"

	"repro/internal/arq"
	"repro/internal/chaos"
	"repro/internal/cost"
	"repro/internal/energy"
	"repro/internal/obs"
	"repro/internal/obs/journal"
	"repro/internal/obs/prof"
	"repro/internal/par"
	"repro/internal/radio"
	"repro/internal/stack"
)

// The loss figure extends Figure 4 to an imperfect channel: the paper
// prices a 1 KB secure transaction on a lossless radio, but a real
// sensor link drops and corrupts frames, and every ARQ retransmission is
// transmit energy the battery never gets back. The figure plots the
// number of 1 KB transactions a 26 KJ battery funds as the bit error
// rate rises, with the repair traffic itemized.

// lossTxBytes is the payload each direction of a transaction carries,
// matching Figure 4's 1 KB transactions.
const lossTxBytes = 1024

// Static energy profile frames for the loss figure: first-copy radio
// traffic split from the ARQ repair traffic, so the retransmission
// energy tax is its own flame. The simulated path reuses the same
// parent frame via Battery.AttachProfile, whose ledger categories
// match these leaf names.
var (
	pLossRoot = prof.Frame("core.LossFigure")
	pLossTx   = prof.Frame("core.LossFigure/radio-tx")
	pLossRx   = prof.Frame("core.LossFigure/radio-rx")
	pLossRetx = prof.Frame("core.LossFigure/radio-retx")
)

// lossMaxRetries bounds the ARQ retransmit budget in both the analytic
// model and the simulation; past it the link is declared down.
const lossMaxRetries = 25

// DefaultLossBERs is the bit-error-rate axis of the loss figure, from a
// clean channel up past the point where ARQ gives up.
var DefaultLossBERs = []float64{0, 1e-5, 1e-4, 5e-4, 1e-3, 5e-3}

// DefaultARQPipeline is the simulated endpoints' transmit-pipeline depth:
// frame k's crypto/framing overlaps frame k-1's radio transmit. Depth 2
// keeps one frame in flight behind the one being prepared; the single
// transmit goroutine preserves wire order, so per-seed fault schedules —
// and therefore figure outputs — are unchanged from the synchronous path.
const DefaultARQPipeline = 2

// LossSimOptions tunes SimulateLossFigure's simulated endpoints without
// touching the analytic model.
type LossSimOptions struct {
	// ARQPipeline is the transmit-pipeline depth for both simulated
	// endpoints; < 0 forces the synchronous (unpipelined) path, 0 means
	// DefaultARQPipeline.
	ARQPipeline int
}

// LossPoint is one column of the loss figure.
type LossPoint struct {
	BER            float64
	FrameErrorRate float64 // per-DATA-frame loss-or-corruption probability
	TxPerFrame     float64 // expected transmissions per DATA frame
	PerTxJoules    float64 // device energy per 1 KB-each-way transaction
	RetxJoules     float64 // share of PerTxJoules spent retransmitting
	Transactions   int     // transactions a full battery funds
	LinkDown       bool    // retry budget exhausted; channel unusable
}

// LossFigure is the transactions-per-battery-vs-BER figure.
type LossFigure struct {
	BatteryJ   float64
	DropRate   float64 // frame-drop probability independent of BER
	MTU        int     // ARQ payload bytes per DATA frame
	FrameBytes int     // largest DATA frame on the wire
	Points     []LossPoint

	// Ledger breakdowns (joules per transaction) are populated by
	// SimulateLossFigure from the battery's drain ledger; analytic
	// figures leave them nil.
	TxJ, RxJ, RetxJ []float64
}

// lossChunks splits the 1 KB transaction payload into ARQ DATA frame
// wire sizes at the given MTU.
func lossChunks(mtu int) []int {
	var sizes []int
	for rem := lossTxBytes; rem > 0; rem -= min(rem, mtu) {
		sizes = append(sizes, min(rem, mtu)+arq.FrameOverhead)
	}
	return sizes
}

// frameErrorRate is the probability one frame of n bytes is lost: either
// dropped outright or hit by at least one bit error.
func frameErrorRate(ber, drop float64, n int) float64 {
	corrupt := 1 - math.Pow(1-ber, float64(8*n))
	return 1 - (1-drop)*(1-corrupt)
}

// ComputeLossFigure evaluates the loss figure analytically for a
// stop-and-wait ARQ over a channel with the given independent frame-drop
// probability and each bit error rate. A DATA frame costs a
// retransmission unless both it and its ack survive, so the expected
// transmissions per frame are 1/((1-FERdata)(1-FERack)); the device pays
// transmit energy for its own (re)transmissions and acks, and receive
// energy for every arriving copy of the peer's traffic.
func ComputeLossFigure(drop float64, bers []float64) (*LossFigure, error) {
	if drop < 0 || drop >= 1 {
		return nil, fmt.Errorf("core: drop rate %v outside [0,1)", drop)
	}
	if len(bers) == 0 {
		bers = DefaultLossBERs
	}
	mtu := 240 // arq.Config default MTU
	chunks := lossChunks(mtu)
	ackB := arq.FrameOverhead
	rad := radio.NewSensorRadio()
	bat, err := energy.NewBattery(cost.SensorBatteryJoules)
	if err != nil {
		return nil, err
	}
	txJ := func(b float64) float64 { return b / 1024 * rad.TxMJPerKB / 1e3 }
	rxJ := func(b float64) float64 { return b / 1024 * rad.RxMJPerKB / 1e3 }

	sp := obs.DefaultDTracer.Root(obs.TraceID(0, int64(len(bers))), "core", "loss_figure_analytic")
	sp.SetN(int64(len(bers)))
	defer sp.End()
	fig := &LossFigure{
		BatteryJ: bat.CapacityJ(), DropRate: drop,
		MTU: mtu, FrameBytes: chunks[0],
	}
	for bi, ber := range bers {
		if ber < 0 || ber >= 1 {
			return nil, fmt.Errorf("core: BER %v outside [0,1)", ber)
		}
		ferAck := frameErrorRate(ber, drop, ackB)
		pt := LossPoint{BER: ber, FrameErrorRate: frameErrorRate(ber, drop, chunks[0])}
		var txB, rxB, retxB, expTotal float64
		for _, s := range chunks {
			fer := frameErrorRate(ber, drop, s)
			e := 1 / ((1 - fer) * (1 - ferAck)) // expected transmissions
			expTotal += e
			// Own DATA copies out; peer's arriving copies in (each of
			// the peer's e transmissions survives with 1-fer, i.e.
			// 1/(1-ferAck) arrive); one ack out per arriving peer copy;
			// of the peer's acks for our copies, exactly one arrives on
			// average (e·(1-fer)·(1-ferAck) = 1).
			txB += e*float64(s) + float64(ackB)/(1-ferAck)
			rxB += float64(s)/(1-ferAck) + float64(ackB)
			retxB += (e - 1) * float64(s)
		}
		pt.TxPerFrame = expTotal / float64(len(chunks))
		if pt.TxPerFrame > lossMaxRetries {
			pt.LinkDown = true
			journal.Emit(int64(bi), journal.LevelWarn, "core", "loss_link_down",
				journal.F("ber", ber), journal.F("tx_per_frame", pt.TxPerFrame),
				journal.I("max_retries", lossMaxRetries))
			fig.Points = append(fig.Points, pt)
			continue
		}
		if prof.Enabled() {
			pLossTx.AddEnergyJ(txJ(txB - retxB))
			pLossRx.AddEnergyJ(rxJ(rxB))
			pLossRetx.AddEnergyJ(txJ(retxB))
		}
		pt.PerTxJoules = txJ(txB) + rxJ(rxB)
		pt.RetxJoules = txJ(retxB)
		pt.Transactions = bat.TransactionsPossible(pt.PerTxJoules)
		journal.Emit(int64(bi), journal.LevelInfo, "core", "loss_point",
			journal.F("ber", ber),
			journal.F("per_tx_j", pt.PerTxJoules),
			journal.F("retx_j", pt.RetxJoules),
			journal.I("transactions", int64(pt.Transactions)))
		fig.Points = append(fig.Points, pt)
		mLossPoints.Inc()
	}
	return fig, nil
}

// SimulateLossFigure cross-checks the analytic figure by running real
// transactions through a chaos.FaultyTransport + arq.Endpoint link and
// draining an energy.Battery through the ARQ energy hooks. Every wire
// frame the device sends or receives is charged to the ledger under
// "radio-tx", "radio-rx" or "radio-retx"; perPoint transactions are
// simulated per BER and the battery total extrapolated. The seed fixes
// the fault schedule.
func SimulateLossFigure(drop float64, bers []float64, seed int64, perPoint int, opts ...LossSimOptions) (*LossFigure, error) {
	var opt LossSimOptions
	if len(opts) > 0 {
		opt = opts[0]
	}
	pipeline := opt.ARQPipeline
	switch {
	case pipeline == 0:
		pipeline = DefaultARQPipeline
	case pipeline < 0:
		pipeline = 0 // synchronous transmit
	}
	if drop < 0 || drop >= 1 {
		return nil, fmt.Errorf("core: drop rate %v outside [0,1)", drop)
	}
	if len(bers) == 0 {
		bers = DefaultLossBERs
	}
	if perPoint < 1 {
		perPoint = 10
	}
	fig := &LossFigure{
		BatteryJ: cost.SensorBatteryJoules, DropRate: drop,
		MTU: 240, FrameBytes: 240 + arq.FrameOverhead,
	}
	// Each BER point owns its pipe pair, fault schedule (seeded per index),
	// radio and battery, so the points simulate concurrently; par.Map
	// returns them in axis order regardless of finish order. This is the
	// figure's wall-clock hot spot: each point spends real time in ARQ
	// retransmit timers.
	type lossCol struct {
		pt            LossPoint
		tx, rx, retxJ float64
	}
	sp := obs.DefaultDTracer.Root(obs.TraceID(seed, int64(len(bers))), "core", "loss_figure_simulated")
	sp.SetN(int64(len(bers)))
	defer sp.End()
	cols, err := par.Map(context.Background(), par.DefaultWorkers(), bers,
		func(i int, ber float64) (lossCol, error) {
			// Each point is its own root: a Child of sp would take its
			// ordinal from worker scheduling order.
			psp := obs.DefaultDTracer.Root(obs.TraceID(seed, int64(i)), "core", "loss_point")
			pt, tx, rx, retx, err := simulateLossPoint(drop, ber, seed+int64(i)*7919, perPoint, pipeline)
			psp.End()
			if err != nil {
				return lossCol{}, err
			}
			mLossPoints.Inc()
			if pt.LinkDown {
				mLossLinkDowns.Inc()
				journal.Emit(int64(i), journal.LevelWarn, "core", "loss_link_down",
					journal.F("ber", ber), journal.F("tx_per_frame", pt.TxPerFrame))
			} else {
				journal.Emit(int64(i), journal.LevelInfo, "core", "loss_point",
					journal.F("ber", ber),
					journal.F("per_tx_j", pt.PerTxJoules),
					journal.F("retx_j", pt.RetxJoules),
					journal.I("transactions", int64(pt.Transactions)))
			}
			return lossCol{pt: *pt, tx: tx, rx: rx, retxJ: retx}, nil
		})
	if err != nil {
		return nil, err
	}
	for _, c := range cols {
		fig.Points = append(fig.Points, c.pt)
		fig.TxJ = append(fig.TxJ, c.tx)
		fig.RxJ = append(fig.RxJ, c.rx)
		fig.RetxJ = append(fig.RetxJ, c.retxJ)
	}
	return fig, nil
}

func simulateLossPoint(drop, ber float64, seed int64, perPoint, pipeline int) (*LossPoint, float64, float64, float64, error) {
	devLink, gwLink := stack.Pipe()
	devFT, err := chaos.New(devLink, chaos.Config{Seed: seed, Drop: drop, BER: ber})
	if err != nil {
		return nil, 0, 0, 0, err
	}
	gwFT, err := chaos.New(gwLink, chaos.Config{Seed: seed + 1, Drop: drop, BER: ber})
	if err != nil {
		return nil, 0, 0, 0, err
	}
	rad := radio.NewSensorRadio()
	bat, err := energy.NewBattery(cost.SensorBatteryJoules)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	if prof.Enabled() {
		bat.AttachProfile(pLossRoot)
	}
	// The hooks fire from both the writer and the ack path of the
	// receive loop; the radio model is not locked, so guard it here.
	var radMu sync.Mutex
	acfg := arq.Config{
		Window: 1, RetransmitTimeout: 2 * time.Millisecond,
		Backoff: 1, MaxRetries: lossMaxRetries, Pipeline: pipeline,
		OnTransmit: func(n int, retransmit bool) {
			radMu.Lock()
			j := rad.Transmit(n)
			radMu.Unlock()
			cat := "radio-tx"
			if retransmit {
				cat = "radio-retx"
			}
			_ = bat.Drain(cat, j)
		},
		OnReceive: func(n int) {
			radMu.Lock()
			j := rad.Receive(n)
			radMu.Unlock()
			_ = bat.Drain("radio-rx", j)
		},
	}
	dev, err := arq.New(devFT, acfg)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	defer dev.Close()
	gw, err := arq.New(gwFT, arq.Config{
		Window: 1, RetransmitTimeout: 2 * time.Millisecond,
		Backoff: 1, MaxRetries: lossMaxRetries, Pipeline: pipeline,
	})
	if err != nil {
		return nil, 0, 0, 0, err
	}
	defer gw.Close()

	go func() { // gateway: echo each 1 KB transaction
		buf := make([]byte, lossTxBytes)
		for {
			if _, err := io.ReadFull(gw, buf); err != nil {
				return
			}
			if _, err := gw.Write(buf); err != nil {
				return
			}
		}
	}()

	msg := bytes.Repeat([]byte{0x5A}, lossTxBytes)
	in := make([]byte, lossTxBytes)
	completed := 0
	linkDown := false
	// The device's own sender detects a dead link via its retransmit
	// budget, but a reader has no timer: if the *gateway* gives up
	// mid-echo the device would wait forever. Bound the echo wait and
	// treat silence as link-down, like an application-level watchdog.
	echoTimeout := 50 * lossMaxRetries * 2 * time.Millisecond
	readDone := make(chan error, 1)
	for t := 0; t < perPoint; t++ {
		if _, err := dev.Write(msg); err != nil {
			if errors.Is(err, arq.ErrLinkDown) {
				linkDown = true
				break
			}
			return nil, 0, 0, 0, err
		}
		go func() {
			_, err := io.ReadFull(dev, in)
			readDone <- err
		}()
		var readErr error
		select {
		case readErr = <-readDone:
		case <-time.After(echoTimeout):
			linkDown = true
		}
		if linkDown || errors.Is(readErr, arq.ErrLinkDown) {
			linkDown = true
			break
		}
		if readErr != nil {
			return nil, 0, 0, 0, readErr
		}
		completed++
	}

	st := dev.Stats()
	pt := &LossPoint{BER: ber, LinkDown: linkDown}
	if st.DataSent > 0 {
		pt.TxPerFrame = float64(st.DataSent+st.Retransmits) / float64(st.DataSent)
	}
	devStats, gwStats := devFT.Stats(), gwFT.Stats()
	if frames := devStats.Frames + gwStats.Frames; frames > 0 {
		pt.FrameErrorRate = float64(devStats.Dropped+devStats.Corrupted+
			gwStats.Dropped+gwStats.Corrupted) / float64(frames)
	}
	if completed == 0 {
		return pt, 0, 0, 0, nil
	}
	n := float64(completed)
	mLossSimTx.Add(int64(completed))
	mLossSimJ.Add(int64((bat.CapacityJ() - bat.RemainingJ()) * 1e6))
	tx, rx, retx := bat.Drained("radio-tx")/n, bat.Drained("radio-rx")/n, bat.Drained("radio-retx")/n
	pt.PerTxJoules = (bat.CapacityJ() - bat.RemainingJ()) / n
	pt.RetxJoules = retx
	if !linkDown {
		pt.Transactions = bat.TransactionsPossible(pt.PerTxJoules)
	}
	return pt, tx, rx, retx, nil
}

// CSV renders the figure as comma-separated rows for external plotting.
func (f *LossFigure) CSV() string {
	var sb strings.Builder
	sb.WriteString("ber,frame_error_rate,tx_per_frame,j_per_tx,retx_j_per_tx,transactions,link_down\n")
	for _, p := range f.Points {
		fmt.Fprintf(&sb, "%.1e,%.4f,%.3f,%.5f,%.5f,%d,%t\n",
			p.BER, p.FrameErrorRate, p.TxPerFrame, p.PerTxJoules, p.RetxJoules,
			p.Transactions, p.LinkDown)
	}
	return sb.String()
}

// Render prints the figure as a text table with a transaction bar chart.
func (f *LossFigure) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Loss figure — 1 KB transactions per %.0f J battery vs bit error rate\n", f.BatteryJ)
	fmt.Fprintf(&sb, "channel: %.1f%% frame drop + BER; stop-and-wait ARQ, %d B MTU, %d B frames\n",
		f.DropRate*100, f.MTU, f.FrameBytes)
	max := 0
	for _, p := range f.Points {
		if p.Transactions > max {
			max = p.Transactions
		}
	}
	sb.WriteString("      BER      FER  tx/frame      J/tx   retx J/tx  transactions\n")
	for i, p := range f.Points {
		if p.LinkDown {
			fmt.Fprintf(&sb, "  %7.0e  %6.1f%%  %8.2f  link down — retry budget (%d) exhausted\n",
				p.BER, p.FrameErrorRate*100, p.TxPerFrame, lossMaxRetries)
			continue
		}
		bar := ""
		if max > 0 {
			bar = strings.Repeat("#", p.Transactions*40/max)
		}
		fmt.Fprintf(&sb, "  %7.0e  %6.1f%%  %8.2f  %8.5f  %10.5f  %12d %s\n",
			p.BER, p.FrameErrorRate*100, p.TxPerFrame, p.PerTxJoules, p.RetxJoules,
			p.Transactions, bar)
		if f.RetxJ != nil {
			fmt.Fprintf(&sb, "           ledger/tx: radio-tx %.5f J, radio-rx %.5f J, radio-retx %.5f J\n",
				f.TxJ[i], f.RxJ[i], f.RetxJ[i])
		}
	}
	return sb.String()
}
