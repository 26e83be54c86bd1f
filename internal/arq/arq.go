// Package arq adds a retransmission-based reliability layer (Automatic
// Repeat reQuest) over an unreliable frame-oriented link such as
// chaos.FaultyTransport.
//
// The paper prices security protocols on a perfect radio; real sensor
// and 802.11 channels drop and corrupt frames, and every recovery costs
// transmit energy the battery ledger must see. This layer supplies the
// recovery machinery: CRC-32 frame checks, sequence numbers, cumulative
// acks, a retransmit timer with exponential backoff, a configurable
// go-back-N sliding window (window 1 = classic stop-and-wait) with fast
// retransmit on a duplicate ack or on a NAK (a receiver's report that it
// discarded a frame it could not read), a tail-loss probe, and a typed
// ErrLinkDown give-up so upper layers can degrade gracefully instead of
// hanging. The probe covers what draws no NAK or duplicate ack: a
// dropped last frame, a lost final ack or a lost NAK. A go-back-N sender
// whose sendBase has not advanced for PTO = RetransmitTimeout/8 since
// the later of the last advance and its newest transmission resends its
// newest in-flight frame once per sendBase, and the ack that copy draws
// drives the usual advance, fast-retransmit and NAK paths (after
// RACK-TLP, RFC 8985). Only a go-back-N endpoint sends or acts on NAKs
// or probes; stop-and-wait recovers by the timer alone.
// Retransmissions and acks are reported through the OnTransmit and
// OnReceive hooks so radio.Radio / energy.Battery can charge them.
//
// An Endpoint turns the lossy datagram link into a reliable byte stream:
// Write blocks until the written bytes are acknowledged (or the link is
// declared down), Read returns in-order delivered bytes. It plugs into
// stack.Stack via Stack.PushARQ as the bottom layer of the protocol
// hierarchy.
package arq

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/obs/journal"
	"repro/internal/obs/prof"
)

// Static energy/cycle profile frames: the link layer's per-frame CRC
// work, with repair traffic (go-back-N resends) attributed separately
// from first transmissions so retransmission overhead shows up as its
// own flame.
var (
	pTxCRC   = prof.Frame("arq.Transmit/crc32")
	pRetxCRC = prof.Frame("arq.Retransmit/crc32")
)

// Static metric handles mirroring the per-endpoint Stats as process
// totals, so a -metrics run attributes wire traffic and repair work to
// the reliability layer without touching any endpoint. Disarmed by
// default.
var (
	mDataSent    = obs.C("arq.data_sent")
	mRetransmits = obs.C("arq.retransmits")
	mAcksSent    = obs.C("arq.acks_sent")
	mAcksRcvd    = obs.C("arq.acks_rcvd")
	mCRCErrors   = obs.C("arq.crc_errors")
	mDuplicates  = obs.C("arq.duplicates")
	mOutOfOrder  = obs.C("arq.out_of_order")
	mBytesOut    = obs.C("arq.bytes_out")
	mBytesIn     = obs.C("arq.bytes_in")
	mRetxBytes   = obs.C("arq.retransmit_bytes")
	mLinkDowns   = obs.C("arq.link_downs")
)

// ErrLinkDown reports that the retransmit budget was exhausted without an
// acknowledgement; the link is declared dead and all subsequent reads and
// writes fail. Test with errors.Is.
var ErrLinkDown = errors.New("arq: link down")

// Config parameterizes an Endpoint. Zero values select the defaults.
type Config struct {
	// Window is the maximum number of unacknowledged DATA frames in
	// flight; 1 (the default) is stop-and-wait.
	Window int
	// MTU is the maximum payload bytes per DATA frame (default 240).
	MTU int
	// RetransmitTimeout is the base retransmit timer (default 15ms). A
	// go-back-N endpoint also derives its tail-loss probe timeout from
	// it: PTO = RetransmitTimeout/8.
	RetransmitTimeout time.Duration
	// Backoff multiplies the timeout after each consecutive retransmit
	// without progress (default 1.5).
	Backoff float64
	// MaxRetries is how many consecutive timeouts are tolerated before
	// the link is declared down (default 10).
	MaxRetries int

	// OnTransmit, when set, observes every frame put on the wire: its
	// length in bytes (ARQ header and CRC included) and whether it is a
	// retransmission. Acks and NAKs report retransmit=false.
	OnTransmit func(bytes int, retransmit bool)
	// OnReceive, when set, observes every frame taken off the wire.
	OnReceive func(bytes int)
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 1
	}
	if c.MTU <= 0 {
		c.MTU = 240
	}
	if c.RetransmitTimeout <= 0 {
		c.RetransmitTimeout = 15 * time.Millisecond
	}
	if c.Backoff < 1 {
		c.Backoff = 1.5
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 10
	}
	return c
}

// Stats counts the layer's work. Byte counters include ARQ framing
// overhead; payload counters are application bytes.
type Stats struct {
	DataSent    int // first transmissions of DATA frames
	Retransmits int // DATA frames sent again, by the timer or a fast retransmit
	AcksSent    int
	AcksRcvd    int

	// FastRetransmits counts window resends a duplicate ack or a NAK
	// triggered before the timer expired; the frames they resend are in
	// Retransmits.
	FastRetransmits int

	// Probes counts tail-loss probes: resends of the newest in-flight
	// frame after PTO = RetransmitTimeout/8 without an advance, at most
	// one per sendBase and only at Window > 1. The probe frames are in
	// Retransmits and RetransmitBytes too.
	Probes int

	// NaksSent counts NAKs this end sent for inbound frames it discarded
	// (at most MaxRetries per expected sequence); NaksRcvd counts NAKs
	// read from the peer, whether or not they drew a resend.
	NaksSent int
	NaksRcvd int

	CRCErrors  int // inbound frames discarded (bad CRC, short, bad type)
	Duplicates int // inbound DATA below the expected sequence (re-acked)
	OutOfOrder int // inbound DATA beyond the expected sequence (dropped)
	StaleAcks  int // acks for frames never sent (corrupt or ancient)

	BytesOut        int // wire bytes written, incl. retransmits and acks
	BytesIn         int // wire bytes read
	RetransmitBytes int // wire bytes attributable to retransmissions
	PayloadOut      int // application bytes accepted by Write
	PayloadIn       int // application bytes delivered to Read
}

// Goodput is the fraction of outbound wire bytes that carried first-time
// application payload — the efficiency the channel noise taxes.
func (s Stats) Goodput() float64 {
	if s.BytesOut == 0 {
		return 0
	}
	return float64(s.PayloadOut) / float64(s.BytesOut)
}

// Endpoint is one end of a reliable link over an unreliable frame
// transport. The lower transport must be datagram-oriented: each Write
// sends one frame, each Read returns exactly one frame.
type Endpoint struct {
	lower io.ReadWriter
	cfg   Config

	wmu    sync.Mutex // serializes frame writes to lower
	sendMu sync.Mutex // serializes Write callers

	mu       sync.Mutex
	readable *sync.Cond // rcvBuf grew, or the link state changed
	rcvBuf   []byte
	rcvNext  uint16
	sendBase uint16   // oldest unacknowledged sequence
	nextSeq  uint16   // next sequence to assign
	inflight [][]byte // encoded unacked DATA frames; [0] carries sendBase
	stats    Stats
	err      error // terminal link error
	closed   bool

	// fastPending asks the sender to resend the window now: a duplicate
	// ack or a NAK reported sendBase missing. fastSpent allows one
	// duplicate-ack resend per sendBase; an advance or a timer resend
	// re-arms it. nakResends counts NAK-driven resends of sendBase and
	// naksSent the NAKs sent for rcvNext; each is capped at MaxRetries
	// and reset when its sequence advances.
	fastPending bool
	fastSpent   bool
	nakResends  int
	naksSent    int

	ackCh chan struct{} // cap-1 wakeup for the sending side

	// tparent, when set, is the distributed-trace span under which this
	// endpoint records its repair work (retransmit frames, backoff
	// waits). Nil — the default — costs one atomic load per site.
	tparent atomic.Pointer[obs.DSpan]
}

// SetTraceParent attaches sp as the distributed-trace parent for the
// endpoint's retransmit and backoff-wait spans (nil detaches), so link
// repair shows up on the critical path of whatever session drives it.
func (e *Endpoint) SetTraceParent(sp *obs.DSpan) { e.tparent.Store(sp) }

// New starts a reliability endpoint over lower and launches its receive
// loop. Close the endpoint to stop the loop (lower is closed too when it
// implements io.Closer).
func New(lower io.ReadWriter, cfg Config) (*Endpoint, error) {
	if lower == nil {
		return nil, errors.New("arq: nil transport")
	}
	e := &Endpoint{lower: lower, cfg: cfg.withDefaults(), ackCh: make(chan struct{}, 1)}
	e.readable = sync.NewCond(&e.mu)
	go e.recvLoop()
	return e, nil
}

// recvLoop drains the lower transport, dispatching acks to the sender and
// data to the read buffer. It exits on transport error or Close.
func (e *Endpoint) recvLoop() {
	buf := make([]byte, e.cfg.MTU+overhead+64)
	for {
		n, err := e.lower.Read(buf)
		if err != nil {
			e.fail(err)
			return
		}
		if e.cfg.OnReceive != nil {
			e.cfg.OnReceive(n)
		}
		e.mu.Lock()
		e.stats.BytesIn += n
		e.mu.Unlock()
		mBytesIn.Add(int64(n))
		e.handleFrame(buf[:n])
	}
}

// handleFrame processes one inbound wire frame. Malformed frames of any
// shape are counted and dropped; they must never panic (fuzzed).
func (e *Endpoint) handleFrame(raw []byte) {
	typ, seq, payload, err := parseFrame(raw)
	if err != nil {
		// A go-back-N receiver NAKs the frame it had to throw away, so a
		// corrupted last frame of a write, with nothing behind it to draw
		// a duplicate ack, need not wait out the sender's timer.
		e.mu.Lock()
		e.stats.CRCErrors++
		nak := e.cfg.Window > 1 && e.naksSent < e.cfg.MaxRetries
		if nak {
			e.naksSent++
			e.stats.NaksSent++
		}
		expect := e.rcvNext
		e.mu.Unlock()
		mCRCErrors.Inc()
		if nak {
			_ = e.transmit(encodeFrame(frameNak, expect, nil), false) // an unsendable NAK surfaces via e.err
		}
		return
	}
	switch typ {
	case frameAck:
		mAcksRcvd.Inc()
		e.mu.Lock()
		e.stats.AcksRcvd++
		if seqLess(e.nextSeq, seq) {
			// Acknowledges frames never sent: stale or corrupted-but-
			// CRC-valid. Ignore.
			e.stats.StaleAcks++
			e.mu.Unlock()
			return
		}
		wake := false
		for len(e.inflight) > 0 && seqLess(e.sendBase, seq) {
			e.inflight = e.inflight[1:]
			e.sendBase++
			e.fastPending, e.fastSpent, e.nakResends = false, false, 0
			wake = true
		}
		// A duplicate ack for sendBase while a later frame is in flight
		// means that later frame arrived and sendBase did not: resend now
		// rather than wait out the timer. Stop-and-wait never has a later
		// frame in flight, so it never takes this path.
		if !wake && seq == e.sendBase && len(e.inflight) > 1 && !e.fastSpent {
			e.fastPending, e.fastSpent = true, true
			wake = true
		}
		e.mu.Unlock()
		if wake {
			e.wakeSender()
		}
	case frameNak:
		// The peer discarded a frame while expecting sendBase: resend the
		// window now, up to MaxRetries times per sendBase so a resend
		// that is itself corrupted can be NAKed again. Like a duplicate
		// ack, a NAK is not progress.
		e.mu.Lock()
		e.stats.NaksRcvd++
		resend := e.cfg.Window > 1 && seq == e.sendBase && len(e.inflight) > 0 &&
			e.nakResends < e.cfg.MaxRetries
		if resend {
			// The resend also answers the duplicate acks the frames
			// behind the discarded one are about to draw.
			e.fastPending, e.fastSpent = true, true
			e.nakResends++
		}
		e.mu.Unlock()
		if resend {
			e.wakeSender()
		}
	case frameData:
		e.mu.Lock()
		switch {
		case seq == e.rcvNext:
			e.rcvBuf = append(e.rcvBuf, payload...)
			e.stats.PayloadIn += len(payload)
			e.rcvNext++
			e.naksSent = 0
			e.readable.Broadcast()
		case seqLess(seq, e.rcvNext):
			e.stats.Duplicates++
			mDuplicates.Inc()
		default:
			e.stats.OutOfOrder++
			mOutOfOrder.Inc()
		}
		ack := e.rcvNext
		e.mu.Unlock()
		e.sendAck(ack)
	}
}

// wakeSender nudges a Write blocked in awaitAck.
func (e *Endpoint) wakeSender() {
	select {
	case e.ackCh <- struct{}{}:
	default:
	}
}

// fail records the terminal link error and wakes everyone.
func (e *Endpoint) fail(err error) {
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.readable.Broadcast()
	e.mu.Unlock()
	e.wakeSender()
}

// transmit puts one encoded frame on the wire and accounts it.
func (e *Endpoint) transmit(frame []byte, retransmit bool) error {
	var tsp *obs.DSpan
	var t0 int64
	if retransmit {
		if tsp = e.tparent.Load(); tsp != nil {
			t0 = obs.DTraceNowUS()
		}
	}
	e.wmu.Lock()
	_, err := e.lower.Write(frame)
	e.wmu.Unlock()
	if err != nil {
		e.fail(err)
		return err
	}
	e.mu.Lock()
	e.stats.BytesOut += len(frame)
	var retxNo int
	if retransmit {
		e.stats.Retransmits++
		e.stats.RetransmitBytes += len(frame)
		retxNo = e.stats.Retransmits
	}
	e.mu.Unlock()
	mBytesOut.Add(int64(len(frame)))
	if retransmit {
		mRetransmits.Inc()
		mRetxBytes.Add(int64(len(frame)))
		if tsp != nil {
			tsp.Event("arq", "retransmit", t0, obs.DTraceNowUS()-t0, int64(len(frame)))
		}
		journal.Emit(int64(retxNo), journal.LevelDebug, "arq", "retransmit",
			journal.I("frame_bytes", int64(len(frame))))
	}
	if prof.Enabled() {
		instr := int64(cost.InstrPerByte(cost.CRC32) * float64(len(frame)))
		if retransmit {
			pRetxCRC.AddCycles(instr)
		} else {
			pTxCRC.AddCycles(instr)
		}
	}
	if e.cfg.OnTransmit != nil {
		e.cfg.OnTransmit(len(frame), retransmit)
	}
	return nil
}

// sendAck emits a cumulative ack for everything below seq.
func (e *Endpoint) sendAck(seq uint16) {
	frame := encodeFrame(frameAck, seq, nil)
	e.mu.Lock()
	e.stats.AcksSent++
	e.mu.Unlock()
	mAcksSent.Inc()
	_ = e.transmit(frame, false) // an unsendable ack surfaces via e.err
}

// retransmitWindow resends every unacknowledged frame (go-back-N). fast
// marks a resend asked for by a duplicate ack; a timer resend re-arms the
// fast path for the current sendBase.
func (e *Endpoint) retransmitWindow(fast bool) error {
	e.mu.Lock()
	pending := make([][]byte, len(e.inflight))
	copy(pending, e.inflight)
	e.fastPending = false
	if !fast {
		e.fastSpent = false
	} else if len(pending) > 0 {
		e.stats.FastRetransmits++
	}
	e.mu.Unlock()
	for _, f := range pending {
		if err := e.transmit(f, true); err != nil {
			return err
		}
	}
	return nil
}

// probe resends the newest in-flight frame: the tail-loss probe.
func (e *Endpoint) probe() error {
	e.mu.Lock()
	if len(e.inflight) == 0 {
		e.mu.Unlock()
		return nil
	}
	f := e.inflight[len(e.inflight)-1]
	e.stats.Probes++
	e.mu.Unlock()
	return e.transmit(f, true)
}

// awaitAck blocks until ok (evaluated under the endpoint lock) holds,
// resending the window when a duplicate ack or a NAK asks for it or the
// timer expires. Only an advancing ack is progress: it restarts the
// timer and resets the backoff. After MaxRetries consecutive timeouts
// without progress the link is declared down. A go-back-N sender also
// probes once per sendBase, PTO after the later of the last advance and
// its newest transmission; a probe, like a fast resend, is not progress.
func (e *Endpoint) awaitAck(ok func() bool) error {
	timeout := e.cfg.RetransmitTimeout
	pto := e.cfg.RetransmitTimeout / 8
	retries := 0
	e.mu.Lock()
	seq := e.sendBase
	e.mu.Unlock()
	// The caller's newest frame went out just before this call, so both
	// the timer and the probe clock start now.
	armed := time.Now()         // when the running timer started
	lastSent := armed           // the later of the last advance and the newest transmission
	probed := e.cfg.Window == 1 // stop-and-wait never probes
	// One timer serves every wait of this call, made on the first wait
	// that blocks and stopped on return, so an ack that lands in time
	// leaves no pending timer behind.
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for {
		e.mu.Lock()
		if e.err != nil {
			err := e.err
			e.mu.Unlock()
			return err
		}
		if e.closed {
			e.mu.Unlock()
			return io.ErrClosedPipe
		}
		if e.sendBase != seq {
			seq = e.sendBase
			retries = 0
			timeout = e.cfg.RetransmitTimeout
			armed = time.Now()
			lastSent = armed
			probed = e.cfg.Window == 1
		}
		fast := e.fastPending
		if !fast && ok() {
			e.mu.Unlock()
			return nil
		}
		e.mu.Unlock()
		if fast {
			if err := e.retransmitWindow(true); err != nil {
				return err
			}
			lastSent = time.Now()
			continue
		}

		deadline := armed.Add(timeout)
		probeDue := !probed && lastSent.Add(pto).Before(deadline)
		if probeDue {
			deadline = lastSent.Add(pto)
		}
		if wait := time.Until(deadline); timer == nil {
			timer = time.NewTimer(wait)
		} else {
			resetTimer(timer, wait)
		}
		select {
		case <-e.ackCh:
		case <-timer.C:
			if probeDue {
				probed = true
				if err := e.probe(); err != nil {
					return err
				}
				continue
			}
			if tsp := e.tparent.Load(); tsp != nil {
				// Only timed-out waits become spans: an ack that arrives
				// in time is progress, not backoff.
				w := time.Since(armed).Microseconds()
				tsp.Event("arq", "backoff_wait", obs.DTraceNowUS()-w, w, timeout.Microseconds())
			}
			retries++
			if retries > e.cfg.MaxRetries {
				err := fmt.Errorf("%w: seq %d unacknowledged after %d attempts",
					ErrLinkDown, seq, retries)
				mLinkDowns.Inc()
				journal.Emit(int64(seq), journal.LevelWarn, "arq", "link_down",
					journal.I("seq", int64(seq)), journal.I("attempts", int64(retries)))
				e.fail(err)
				return err
			}
			if err := e.retransmitWindow(false); err != nil {
				return err
			}
			timeout = time.Duration(float64(timeout) * e.cfg.Backoff)
			armed = time.Now()
			lastSent = armed
		}
	}
}

// resetTimer re-arms t to fire after d. Under the pre-Go 1.23 timer
// semantics this module builds with (go 1.22 in go.mod), a tick that
// fired but was never read stays in t.C and Reset does not discard it,
// so Stop and drain it first. The drain is a no-op under the newer
// semantics.
func resetTimer(t *time.Timer, d time.Duration) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	t.Reset(d)
}

// Write chunks p into DATA frames, transmits them under the sliding
// window, and returns once every byte is acknowledged. On error the
// returned count is the bytes accepted into the send window, not
// necessarily acknowledged.
func (e *Endpoint) Write(p []byte) (int, error) {
	e.sendMu.Lock()
	defer e.sendMu.Unlock()
	total := 0
	for len(p) > 0 {
		if err := e.awaitAck(func() bool { return len(e.inflight) < e.cfg.Window }); err != nil {
			return total, err
		}
		n := len(p)
		if n > e.cfg.MTU {
			n = e.cfg.MTU
		}
		e.mu.Lock()
		seq := e.nextSeq
		e.nextSeq++
		frame := encodeFrame(frameData, seq, p[:n])
		e.inflight = append(e.inflight, frame)
		e.stats.DataSent++
		e.stats.PayloadOut += n
		e.mu.Unlock()
		mDataSent.Inc()
		if err := e.transmit(frame, false); err != nil {
			return total, err
		}
		total += n
		p = p[n:]
	}
	if err := e.awaitAck(func() bool { return len(e.inflight) == 0 }); err != nil {
		return total, err
	}
	return total, nil
}

// Read returns in-order delivered bytes, blocking until data arrives, the
// peer goes away (io.EOF) or the link errors.
func (e *Endpoint) Read(p []byte) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for len(e.rcvBuf) == 0 {
		if e.err != nil {
			return 0, e.err
		}
		if e.closed {
			return 0, io.EOF
		}
		e.readable.Wait()
	}
	n := copy(p, e.rcvBuf)
	e.rcvBuf = e.rcvBuf[n:]
	return n, nil
}

// Close shuts the endpoint down: blocked reads return EOF, blocked writes
// fail, and the lower transport is closed when it supports it (which also
// stops the receive loop).
func (e *Endpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.readable.Broadcast()
	e.mu.Unlock()
	e.wakeSender()
	if c, ok := e.lower.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// Stats returns a snapshot of the layer's counters.
func (e *Endpoint) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Down reports whether the link has been declared dead.
func (e *Endpoint) Down() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return errors.Is(e.err, ErrLinkDown)
}
