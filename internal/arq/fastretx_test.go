package arq_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/arq"
	"repro/internal/chaos"
	"repro/internal/stack"
)

// seqFaulter is a fault-free datagram link that silently drops, or
// corrupts in its CRC, the DATA frames (ACK frames when acks is set)
// drop or corrupt picks by sequence number and copy number (0 for the
// first transmission), so a fault lands on a chosen frame rather than on
// whatever a random schedule and goroutine timing happen to hit. Either
// picker may be nil.
type seqFaulter struct {
	io.ReadWriteCloser
	drop, corrupt func(seq uint16, nth int) bool
	acks          bool

	mu   sync.Mutex
	seen map[uint16]int
}

func (d *seqFaulter) Write(p []byte) (int, error) {
	typ := byte('D')
	if d.acks {
		typ = 'A'
	}
	if len(p) >= 3 && p[0] == typ { // type | seq(2 BE) | ...
		seq := binary.BigEndian.Uint16(p[1:3])
		d.mu.Lock()
		n := d.seen[seq]
		d.seen[seq]++
		d.mu.Unlock()
		if d.drop != nil && d.drop(seq, n) {
			return len(p), nil
		}
		if d.corrupt != nil && d.corrupt(seq, n) {
			return d.ReadWriteCloser.Write(flipLastBit(p))
		}
	}
	return d.ReadWriteCloser.Write(p)
}

// flipLastBit returns a copy of frame with one bit of its CRC flipped.
func flipLastBit(frame []byte) []byte {
	c := append([]byte(nil), frame...)
	c[len(c)-1] ^= 1
	return c
}

// faultyLink joins two endpoints; frames ea sends pass through fa and
// frames eb sends through fb, and a nil faulter passes every frame.
func faultyLink(t *testing.T, cfg arq.Config, fa, fb *seqFaulter) (ea, eb *arq.Endpoint) {
	t.Helper()
	a, b := stack.Pipe()
	ta, err := chaos.New(a, chaos.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := chaos.New(b, chaos.Config{})
	if err != nil {
		t.Fatal(err)
	}
	wrap := func(f *seqFaulter, rw io.ReadWriteCloser) io.ReadWriteCloser {
		if f == nil {
			return rw
		}
		f.ReadWriteCloser, f.seen = rw, map[uint16]int{}
		return f
	}
	if ea, err = arq.New(wrap(fa, ta), cfg); err != nil {
		t.Fatal(err)
	}
	if eb, err = arq.New(wrap(fb, tb), cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ea.Close(); eb.Close() })
	return ea, eb
}

// droppingLink is a faultyLink that drops the frames drop picks.
func droppingLink(t *testing.T, cfg arq.Config, drop func(seq uint16, nth int) bool) (ea, eb *arq.Endpoint) {
	t.Helper()
	return faultyLink(t, cfg, &seqFaulter{drop: drop}, nil)
}

// pattern returns n bytes that differ from frame to frame.
func pattern(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7 + i/240)
	}
	return p
}

// TestFastRetransmitBeatsTimer: one lost mid-window frame is resent on
// the receiver's first duplicate ack, so Write returns in a small
// fraction of a 1 s retransmit timeout.
func TestFastRetransmitBeatsTimer(t *testing.T) {
	const rto = time.Second
	cfg := arq.Config{Window: 8, RetransmitTimeout: rto}
	ea, eb := droppingLink(t, cfg, func(seq uint16, nth int) bool { return seq == 3 && nth == 0 })
	msg := pattern(8 * 240) // eight full frames, seq 0..7
	got := make(chan []byte, 1)
	go func() {
		buf := make([]byte, len(msg))
		io.ReadFull(eb, buf) //nolint:errcheck
		got <- buf
	}()
	start := time.Now()
	if _, err := ea.Write(msg); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > rto/4 {
		t.Fatalf("Write took %v: the loss waited for the %v timer", el, rto)
	}
	if !bytes.Equal(<-got, msg) {
		t.Fatal("payload corrupted")
	}
	st := ea.Stats()
	if st.FastRetransmits != 1 {
		t.Fatalf("FastRetransmits = %d, want 1: %+v", st.FastRetransmits, st)
	}
	if st.Retransmits < 1 || st.Retransmits > 8 {
		t.Fatalf("Retransmits = %d, want the go-back-N tail from seq 3: %+v", st.Retransmits, st)
	}
}

// TestDuplicateAcksAreNotProgress: a frame lost on every copy draws a
// duplicate ack after each resend, yet those acks never reset the retry
// budget: the link still goes down after MaxRetries timeouts, with a
// bounded number of resends.
func TestDuplicateAcksAreNotProgress(t *testing.T) {
	const rto = 5 * time.Millisecond
	cfg := arq.Config{Window: 8, RetransmitTimeout: rto, Backoff: 1, MaxRetries: 3}
	ea, eb := droppingLink(t, cfg, func(seq uint16, _ int) bool { return seq == 2 })
	go io.Copy(io.Discard, eb) //nolint:errcheck

	start := time.Now()
	done := make(chan error, 1)
	go func() {
		_, err := ea.Write(pattern(8 * 240))
		done <- err
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("duplicate acks kept the link up: no give-up after 5s")
	}
	el := time.Since(start)
	if !errors.Is(err, arq.ErrLinkDown) {
		t.Fatalf("want ErrLinkDown, got %v", err)
	}
	// MaxRetries+1 full timeouts must elapse: a duplicate ack neither
	// restarts the timer nor resets the count.
	if floor := time.Duration(cfg.MaxRetries+1) * rto; el < floor {
		t.Fatalf("link down after %v, before %d timeouts (%v)", el, cfg.MaxRetries+1, floor)
	}
	// Each timer resend re-arms one fast resend; each resend carries at
	// most the six frames from seq 2 on. A tail-loss probe resends one
	// frame, at most once for each sendBase (0, 1 and 2).
	st := ea.Stats()
	if st.FastRetransmits > cfg.MaxRetries+1 {
		t.Fatalf("FastRetransmits = %d, want <= %d", st.FastRetransmits, cfg.MaxRetries+1)
	}
	if st.Probes > 3 {
		t.Fatalf("Probes = %d, want <= 3", st.Probes)
	}
	if limit := (2*cfg.MaxRetries+1)*6 + st.Probes; st.Retransmits > limit {
		t.Fatalf("Retransmits = %d, want <= %d", st.Retransmits, limit)
	}
}

// TestStopAndWaitNeverFastRetransmits: with window 1 no later frame is
// ever in flight behind a loss, so a lossy link recovers by the timer
// alone and the simulated loss figure's frame sequence is unchanged.
func TestStopAndWaitNeverFastRetransmits(t *testing.T) {
	lossy := func(seed int64) chaos.Config { return chaos.Config{Seed: seed, Drop: 0.1, BER: 1e-4} }
	cfg := arq.Config{Window: 1, RetransmitTimeout: 2 * time.Millisecond, MaxRetries: 40}
	ea, eb := duplexLink(t, lossy(31), lossy(32), cfg)
	st := echoRun(t, ea, eb, 4, 1024)
	if st.Retransmits == 0 {
		t.Fatalf("lossy link produced no retransmits: %+v", st)
	}
	if st.FastRetransmits != 0 || eb.Stats().FastRetransmits != 0 {
		t.Fatalf("stop-and-wait fast-retransmitted: %+v / %+v", st, eb.Stats())
	}
	if st.Probes != 0 || eb.Stats().Probes != 0 {
		t.Fatalf("stop-and-wait sent a tail-loss probe: %+v / %+v", st, eb.Stats())
	}
	// Corrupted frames reach both ends, yet neither NAKs them.
	if st.CRCErrors+eb.Stats().CRCErrors == 0 {
		t.Fatalf("lossy link corrupted no frames: %+v / %+v", st, eb.Stats())
	}
	for _, s := range []arq.Stats{st, eb.Stats()} {
		if s.NaksSent != 0 || s.NaksRcvd != 0 {
			t.Fatalf("stop-and-wait sent or received NAKs: %+v", s)
		}
	}
}

// TestNakBeatsTimerOnCorruptedLastFrame: the last DATA frame of a write,
// corrupted once, has no later frame behind it to draw a duplicate ack.
// The receiver NAKs the frame it discarded, so Write returns in a small
// fraction of a 1 s retransmit timeout.
func TestNakBeatsTimerOnCorruptedLastFrame(t *testing.T) {
	const rto = time.Second
	cfg := arq.Config{Window: 8, RetransmitTimeout: rto}
	msg := pattern(5 * 240) // five full frames, seq 0..4
	ea, eb := faultyLink(t, cfg, &seqFaulter{corrupt: func(seq uint16, nth int) bool { return seq == 4 && nth == 0 }}, nil)
	got := make(chan []byte, 1)
	go func() {
		buf := make([]byte, len(msg))
		io.ReadFull(eb, buf) //nolint:errcheck
		got <- buf
	}()
	start := time.Now()
	if _, err := ea.Write(msg); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > rto/4 {
		t.Fatalf("Write took %v: the corrupted last frame waited for the %v timer", el, rto)
	}
	if !bytes.Equal(<-got, msg) {
		t.Fatal("payload corrupted")
	}
	sa, sb := ea.Stats(), eb.Stats()
	if sb.CRCErrors != 1 || sb.NaksSent != 1 || sa.NaksRcvd != 1 {
		t.Fatalf("want one discarded frame, one NAK sent and received: sender %+v, receiver %+v", sa, sb)
	}
	if sa.FastRetransmits != 1 || sa.Retransmits != 1 {
		t.Fatalf("want one resend of the last frame alone: %+v", sa)
	}
}

// probeRun writes five full frames (seq 0..4) from ea to eb under a 1 s
// retransmit timeout and checks that the write returns well before half
// of it, with the payload intact and exactly one tail-loss probe as the
// only resend.
func probeRun(t *testing.T, ea, eb *arq.Endpoint, rto time.Duration) {
	t.Helper()
	msg := pattern(5 * 240)
	got := make(chan []byte, 1)
	go func() {
		buf := make([]byte, len(msg))
		io.ReadFull(eb, buf) //nolint:errcheck
		got <- buf
	}()
	start := time.Now()
	if _, err := ea.Write(msg); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > rto/2 {
		t.Fatalf("Write took %v: the tail loss waited for the %v timer", el, rto)
	}
	if !bytes.Equal(<-got, msg) {
		t.Fatal("payload corrupted")
	}
	if st := ea.Stats(); st.Probes != 1 || st.Retransmits != 1 || st.FastRetransmits != 0 {
		t.Fatalf("want one probe as the only resend: %+v", st)
	}
}

// TestProbeBeatsTimerOnDroppedLastFrame: the last DATA frame of a write,
// dropped once, reaches the receiver neither to draw a duplicate ack nor
// a NAK. The sender probes with it PTO = RTO/8 after the last advance.
func TestProbeBeatsTimerOnDroppedLastFrame(t *testing.T) {
	const rto = time.Second
	cfg := arq.Config{Window: 8, RetransmitTimeout: rto}
	ea, eb := droppingLink(t, cfg, func(seq uint16, nth int) bool { return seq == 4 && nth == 0 })
	probeRun(t, ea, eb, rto)
}

// TestProbeBeatsTimerOnLostFinalAck: every frame of a write arrives but
// the ack for the last one is lost. The probe is a duplicate the
// receiver re-acks.
func TestProbeBeatsTimerOnLostFinalAck(t *testing.T) {
	const rto = time.Second
	cfg := arq.Config{Window: 8, RetransmitTimeout: rto}
	lose := &seqFaulter{acks: true, drop: func(seq uint16, nth int) bool { return seq == 5 && nth == 0 }}
	ea, eb := faultyLink(t, cfg, nil, lose)
	probeRun(t, ea, eb, rto)
	if sb := eb.Stats(); sb.Duplicates != 1 {
		t.Fatalf("want the probe to arrive as one duplicate: %+v", sb)
	}
}

// TestProbeIsNotProgress: on a link that drops every DATA frame, a probe
// neither restarts the timer nor resets the timeout count, so the link
// goes down after MaxRetries timeouts, with one probe for its one
// sendBase on top of the timer's resends.
func TestProbeIsNotProgress(t *testing.T) {
	const rto = 5 * time.Millisecond
	cfg := arq.Config{Window: 8, RetransmitTimeout: rto, Backoff: 1, MaxRetries: 3}
	ea, eb := droppingLink(t, cfg, func(uint16, int) bool { return true })
	go io.Copy(io.Discard, eb) //nolint:errcheck

	const frames = 5
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		_, err := ea.Write(pattern(frames * 240))
		done <- err
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("probes kept the link up: no give-up after 5s")
	}
	if !errors.Is(err, arq.ErrLinkDown) {
		t.Fatalf("want ErrLinkDown, got %v", err)
	}
	if floor := time.Duration(cfg.MaxRetries+1) * rto; time.Since(start) < floor {
		t.Fatalf("link down after %v, before %d timeouts (%v)", time.Since(start), cfg.MaxRetries+1, floor)
	}
	st := ea.Stats()
	if st.Probes != 1 {
		t.Fatalf("Probes = %d, want 1 for the one sendBase: %+v", st.Probes, st)
	}
	if want := cfg.MaxRetries*frames + st.Probes; st.Retransmits != want {
		t.Fatalf("Retransmits = %d, want %d (timer resends plus the probe): %+v", st.Retransmits, want, st)
	}
}

// corruptAll is a datagram link that flips a CRC bit in every frame
// written through it.
type corruptAll struct{ io.ReadWriteCloser }

func (c corruptAll) Write(p []byte) (int, error) { return c.ReadWriteCloser.Write(flipLastBit(p)) }

// TestNaksBoundedOnAllCorruptLink: when every frame in both directions
// arrives corrupted, NAKs answer data and NAKs alike, yet each side sends
// at most MaxRetries of them while its expected sequence stands still,
// the resends stay those of the timer, and the link still goes down after
// MaxRetries timeouts.
func TestNaksBoundedOnAllCorruptLink(t *testing.T) {
	const rto = 5 * time.Millisecond
	cfg := arq.Config{Window: 8, RetransmitTimeout: rto, Backoff: 1, MaxRetries: 5}
	a, b := stack.Pipe()
	ta, err := chaos.New(a, chaos.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := chaos.New(b, chaos.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ea, err := arq.New(corruptAll{ta}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := arq.New(corruptAll{tb}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ea.Close(); eb.Close() })

	const frames = 5
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		_, err := ea.Write(pattern(frames * 240))
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("NAKs kept the link up: no give-up after 5s")
	}
	if !errors.Is(err, arq.ErrLinkDown) {
		t.Fatalf("want ErrLinkDown, got %v", err)
	}
	if floor := time.Duration(cfg.MaxRetries+1) * rto; time.Since(start) < floor {
		t.Fatalf("link down after %v, before %d timeouts (%v)", time.Since(start), cfg.MaxRetries+1, floor)
	}
	sa, sb := ea.Stats(), eb.Stats()
	t.Logf("sender %+v\nreceiver %+v", sa, sb)
	for _, s := range []arq.Stats{sa, sb} {
		if s.NaksSent > cfg.MaxRetries {
			t.Fatalf("NaksSent = %d, want <= %d for one expected sequence: %+v", s.NaksSent, cfg.MaxRetries, s)
		}
	}
	if sa.NaksSent == 0 || sb.NaksSent == 0 {
		t.Fatalf("a side sent no NAKs for its discarded frames: %+v / %+v", sa, sb)
	}
	if sa.FastRetransmits > cfg.MaxRetries {
		t.Fatalf("FastRetransmits = %d, want <= %d", sa.FastRetransmits, cfg.MaxRetries)
	}
	// sendBase never advances, so it draws at most one probe.
	if sa.Probes > 1 {
		t.Fatalf("Probes = %d, want <= 1 for one sendBase: %+v", sa.Probes, sa)
	}
	// The timer alone resends the whole write MaxRetries times; the
	// probe adds one frame.
	if limit := cfg.MaxRetries*frames + sa.Probes; sa.Retransmits > limit {
		t.Fatalf("Retransmits = %d, want <= %d", sa.Retransmits, limit)
	}
}

// nakFrame encodes a NAK naming seq, as the receiver sends it.
func nakFrame(seq uint16) []byte {
	f := []byte{'N', byte(seq >> 8), byte(seq)}
	return binary.BigEndian.AppendUint32(f, crc32.ChecksumIEEE(f))
}

// TestNakFloodBoundedResends: a peer that answers a write with a flood of
// NAKs, for sendBase and for other sequences, draws at most MaxRetries
// window resends from it.
func TestNakFloodBoundedResends(t *testing.T) {
	cfg := arq.Config{Window: 8, RetransmitTimeout: 10 * time.Second, MaxRetries: 3}
	a, b := stack.Pipe()
	ta, err := chaos.New(a, chaos.Config{})
	if err != nil {
		t.Fatal(err)
	}
	peer, err := chaos.New(b, chaos.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ea, err := arq.New(ta, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ea.Close(); peer.Close() })

	const frames = 4
	done := make(chan error, 1)
	go func() {
		_, err := ea.Write(pattern(frames * 240))
		done <- err
	}()
	// Read the write's first transmission, then flood.
	buf := make([]byte, 512)
	for i := 0; i < frames; i++ {
		if _, err := peer.Read(buf); err != nil {
			t.Fatal(err)
		}
	}
	go io.Copy(io.Discard, peer) //nolint:errcheck
	// Paced, so the sender acts on each NAK rather than on one pending
	// resend that a burst of NAKs folds into.
	const flood = 50
	for i := 0; i < flood; i++ {
		for _, seq := range []uint16{0, 1, 9} {
			if _, err := peer.Write(nakFrame(seq)); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	deadline := time.Now().Add(5 * time.Second)
	for ea.Stats().NaksRcvd < 3*flood {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d NAKs read", ea.Stats().NaksRcvd, 3*flood)
		}
		time.Sleep(time.Millisecond)
	}
	ea.Close()
	if err := <-done; err == nil {
		t.Fatal("Write returned without an ack")
	}
	st := ea.Stats()
	if st.FastRetransmits < 1 || st.FastRetransmits > cfg.MaxRetries {
		t.Fatalf("FastRetransmits = %d, want 1..%d: %+v", st.FastRetransmits, cfg.MaxRetries, st)
	}
	if limit := cfg.MaxRetries * frames; st.Retransmits > limit {
		t.Fatalf("Retransmits = %d, want <= %d: %+v", st.Retransmits, limit, st)
	}
}

// TestFastRetransmitExactlyOnceUnderDupAndReorder: duplicated and
// reordered frames draw duplicate acks of every kind; the stream still
// delivers each byte once, in order.
func TestFastRetransmitExactlyOnceUnderDupAndReorder(t *testing.T) {
	messy := func(seed int64) chaos.Config {
		return chaos.Config{Seed: seed, Drop: 0.05, Dup: 0.2, Reorder: 0.2}
	}
	cfg := arq.Config{Window: 8, RetransmitTimeout: 5 * time.Millisecond, MaxRetries: 40}
	a, b := stack.Pipe()
	ta, err := chaos.New(a, messy(41))
	if err != nil {
		t.Fatal(err)
	}
	tb, err := chaos.New(b, messy(42))
	if err != nil {
		t.Fatal(err)
	}
	ea, err := arq.New(ta, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := arq.New(tb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ea.Close(); eb.Close() })

	const writes, size = 4, 4 << 10
	st := echoRun(t, ea, eb, writes, size)
	if st.PayloadIn != writes*size || eb.Stats().PayloadIn != writes*size {
		t.Fatalf("delivered %d / %d bytes, want %d each way", st.PayloadIn, eb.Stats().PayloadIn, writes*size)
	}
	if fs := ta.Stats(); fs.Duplicated == 0 || fs.Reordered == 0 {
		t.Fatalf("channel injected no duplicates or reorders: %+v", fs)
	}
}
