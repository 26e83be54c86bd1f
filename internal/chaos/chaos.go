// Package chaos models an unreliable radio link: a deterministic,
// seed-driven fault injector that sits between a protocol stack and a
// perfect transport (e.g. stack.Pipe) and subjects every frame to the
// impairments a real 10 Kbps sensor radio or 802.11 channel produces —
// bit-flip corruption at a configurable BER, frame drop, duplication,
// reordering, and burst losses via a Gilbert–Elliott two-state channel.
//
// The paper's whole premise is a *wireless* appliance, yet its protocol
// figures assume a lossless link. This package supplies the missing
// channel so the reliability layer (internal/arq) and the lossy-channel
// battery figure (core.ComputeLossFigure, cmd/lossfig) can quantify what
// noise costs.
//
// A FaultyTransport is frame-oriented, playing the role of the radio PHY:
// each Write carries one link frame (faults are applied per frame, then
// the frame is emitted onto the byte transport under a 2-byte PHY length
// header the channel itself never corrupts — a real receiver regains
// frame sync from the PHY preamble even when payload bits are wrong), and
// each Read returns exactly one inbound frame. Wrap both ends of a duplex
// pipe, one FaultyTransport per direction of egress; a zero Config is a
// perfect (but still framed) channel.
package chaos

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"

	"repro/internal/obs"
	"repro/internal/obs/journal"
)

// Static fault-injection metric handles, process totals across all
// transports; disarmed by default.
var (
	mFrames     = obs.C("chaos.frames")
	mDropped    = obs.C("chaos.dropped")
	mCorrupted  = obs.C("chaos.corrupted")
	mBitsFlip   = obs.C("chaos.bits_flipped")
	mDuplicated = obs.C("chaos.duplicated")
	mReordered  = obs.C("chaos.reordered")
	mBadState   = obs.C("chaos.bad_state_frames")
)

// phyHeaderLen is the length prefix the PHY framing adds on the wire.
const phyHeaderLen = 2

// MaxFrame bounds one PHY frame (the 2-byte length header's reach).
const MaxFrame = 0xffff

// Errors returned by FaultyTransport.
var (
	ErrFrameTooLarge = errors.New("chaos: frame exceeds PHY limit")
	ErrShortBuffer   = errors.New("chaos: read buffer smaller than inbound frame")
)

// Burst is a Gilbert–Elliott two-state burst-loss model: the channel
// wanders between a good and a bad state with the given per-frame
// transition probabilities, and drops frames with a state-dependent
// probability. It reproduces the clustered losses of fading channels that
// independent per-frame drop cannot.
type Burst struct {
	PGoodToBad float64 // P(good→bad) evaluated once per frame
	PBadToGood float64 // P(bad→good) evaluated once per frame
	LossGood   float64 // frame loss probability in the good state
	LossBad    float64 // frame loss probability in the bad state
}

// Step advances the Gilbert–Elliott state machine by one frame: bad is
// the current channel state and u a uniform [0,1) draw consumed by the
// transition. It is a pure function so that both FaultyTransport and
// analytic channel models (internal/fleet simulates one independent
// burst state per device) share the exact same semantics.
func (b *Burst) Step(bad bool, u float64) bool {
	if bad {
		return u >= b.PBadToGood
	}
	return u < b.PGoodToBad
}

// Config parameterizes the injected faults. All probabilities are per
// frame except BER, which is per bit. The zero value is a lossless
// channel.
type Config struct {
	// Seed drives the fault PRNG; a fixed seed gives a reproducible
	// fault schedule for a given frame sequence.
	Seed int64
	// BER is the bit error rate applied to forwarded frames.
	BER float64
	// Drop is an independent per-frame drop probability, applied on top
	// of any burst model.
	Drop float64
	// Dup is the probability a frame is delivered twice.
	Dup float64
	// Reorder is the probability a frame is held back and swapped with
	// the next frame sent.
	Reorder float64
	// Burst optionally enables Gilbert–Elliott burst losses.
	Burst *Burst
}

// LossProb returns the per-frame loss probability of the channel given
// the current burst state: the independent Drop probability composed
// with the state-dependent Gilbert–Elliott loss.
func (c *Config) LossProb(bad bool) float64 {
	p := c.Drop
	if b := c.Burst; b != nil {
		stateLoss := b.LossGood
		if bad {
			stateLoss = b.LossBad
		}
		p = 1 - (1-p)*(1-stateLoss)
	}
	return p
}

// FrameCorruptProb returns the probability that a frame of frameBytes
// carries at least one flipped bit at the configured BER — the analytic
// counterpart of the per-byte corruption loop in Write, used by models
// that price corruption (a corrupt frame dies at the MAC) without
// materializing the bytes.
func (c *Config) FrameCorruptProb(frameBytes int) float64 {
	if c.BER <= 0 || frameBytes <= 0 {
		return 0
	}
	return 1 - math.Pow(1-c.BER, float64(8*frameBytes))
}

func (c *Config) validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"BER", c.BER}, {"Drop", c.Drop}, {"Dup", c.Dup}, {"Reorder", c.Reorder},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("chaos: %s %v outside [0,1]", p.name, p.v)
		}
	}
	if b := c.Burst; b != nil {
		for _, p := range []struct {
			name string
			v    float64
		}{
			{"PGoodToBad", b.PGoodToBad}, {"PBadToGood", b.PBadToGood},
			{"LossGood", b.LossGood}, {"LossBad", b.LossBad},
		} {
			if p.v < 0 || p.v > 1 {
				return fmt.Errorf("chaos: burst %s %v outside [0,1]", p.name, p.v)
			}
		}
	}
	return nil
}

// Stats counts injected faults.
type Stats struct {
	Frames      int // frames offered for transmission
	Delivered   int // frames actually put on the wire (incl. duplicates)
	Dropped     int // frames lost (independent or burst)
	Corrupted   int // frames with at least one flipped bit
	BitsFlipped int
	Duplicated  int
	Reordered   int
	BadState    int // frames offered while the channel was in the bad state
}

// FaultyTransport is a frame-oriented lossy channel over a byte transport.
// It is safe for one concurrent reader and one concurrent writer.
type FaultyTransport struct {
	lower io.ReadWriteCloser
	cfg   Config

	wmu   sync.Mutex // guards rng, held, stats, bad, writes to lower
	rng   *rand.Rand
	pByte float64 // per-byte corruption probability derived from BER
	bad   bool    // Gilbert–Elliott state
	held  []byte  // frame held back for reordering

	stats Stats

	rmu    sync.Mutex // guards reads from lower
	rcvHdr [phyHeaderLen]byte
}

// New wraps lower as the egress of a lossy link. Faults apply to frames
// written through the returned transport; reads parse the peer's PHY
// framing untouched.
func New(lower io.ReadWriteCloser, cfg Config) (*FaultyTransport, error) {
	if lower == nil {
		return nil, errors.New("chaos: nil transport")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &FaultyTransport{
		lower: lower,
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		pByte: 1 - math.Pow(1-cfg.BER, 8),
	}, nil
}

// Write subjects one frame to the configured faults and forwards the
// survivors. It reports the full frame length even when the frame is
// dropped — loss is silent, exactly as on air.
func (t *FaultyTransport) Write(p []byte) (int, error) {
	if len(p) > MaxFrame {
		return 0, ErrFrameTooLarge
	}
	t.wmu.Lock()
	defer t.wmu.Unlock()
	t.stats.Frames++
	mFrames.Inc()

	// Burst-state transition happens once per offered frame; the shared
	// Step/LossProb helpers keep this transport and the analytic
	// per-device channel model in internal/fleet on identical semantics
	// (and an identical RNG draw schedule).
	if b := t.cfg.Burst; b != nil {
		t.bad = b.Step(t.bad, t.rng.Float64())
		if t.bad {
			t.stats.BadState++
			mBadState.Inc()
		}
	}
	lossP := t.cfg.LossProb(t.bad)
	if t.rng.Float64() < lossP {
		t.stats.Dropped++
		mDropped.Inc()
		journal.Emit(int64(t.stats.Frames), journal.LevelDebug, "chaos", "drop",
			journal.I("frame_bytes", int64(len(p))))
		return len(p), nil
	}

	frame := append([]byte(nil), p...)
	flipped := 0
	for i := range frame {
		if t.rng.Float64() < t.pByte {
			frame[i] ^= 1 << t.rng.Intn(8)
			flipped++
		}
	}
	if flipped > 0 {
		t.stats.Corrupted++
		t.stats.BitsFlipped += flipped
		mCorrupted.Inc()
		mBitsFlip.Add(int64(flipped))
		journal.Emit(int64(t.stats.Frames), journal.LevelDebug, "chaos", "corrupt",
			journal.I("bits_flipped", int64(flipped)), journal.I("frame_bytes", int64(len(p))))
	}

	if t.held == nil && t.rng.Float64() < t.cfg.Reorder {
		// Hold this frame; it goes out after the next one.
		t.stats.Reordered++
		mReordered.Inc()
		t.held = frame
		return len(p), nil
	}
	if err := t.emit(frame); err != nil {
		return 0, err
	}
	if t.rng.Float64() < t.cfg.Dup {
		t.stats.Duplicated++
		mDuplicated.Inc()
		if err := t.emit(frame); err != nil {
			return 0, err
		}
	}
	if t.held != nil {
		held := t.held
		t.held = nil
		if err := t.emit(held); err != nil {
			return 0, err
		}
	}
	return len(p), nil
}

// emit puts one frame on the wire under the PHY length header.
func (t *FaultyTransport) emit(frame []byte) error {
	buf := make([]byte, phyHeaderLen+len(frame))
	buf[0] = byte(len(frame) >> 8)
	buf[1] = byte(len(frame))
	copy(buf[phyHeaderLen:], frame)
	if _, err := t.lower.Write(buf); err != nil {
		return err
	}
	t.stats.Delivered++
	return nil
}

// Read returns exactly one inbound frame. p must be large enough for the
// whole frame; a short buffer is an error (a datagram cannot be split).
func (t *FaultyTransport) Read(p []byte) (int, error) {
	t.rmu.Lock()
	defer t.rmu.Unlock()
	if _, err := io.ReadFull(t.lower, t.rcvHdr[:]); err != nil {
		return 0, err
	}
	n := int(t.rcvHdr[0])<<8 | int(t.rcvHdr[1])
	if n > len(p) {
		// Drain the frame to keep the stream in sync, then report.
		if _, err := io.CopyN(io.Discard, t.lower, int64(n)); err != nil {
			return 0, err
		}
		return 0, fmt.Errorf("%w: frame %d, buffer %d", ErrShortBuffer, n, len(p))
	}
	if _, err := io.ReadFull(t.lower, p[:n]); err != nil {
		return 0, err
	}
	return n, nil
}

// Close flushes any held (reordered) frame and closes the transport.
func (t *FaultyTransport) Close() error {
	t.wmu.Lock()
	if t.held != nil {
		held := t.held
		t.held = nil
		_ = t.emit(held)
	}
	t.wmu.Unlock()
	return t.lower.Close()
}

// Stats returns a snapshot of the fault counters.
func (t *FaultyTransport) Stats() Stats {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	return t.stats
}
