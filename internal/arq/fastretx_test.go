package arq_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/arq"
	"repro/internal/chaos"
	"repro/internal/stack"
)

// seqDropper is a fault-free datagram link that silently drops the DATA
// frames drop picks by sequence number and copy number (0 for the first
// transmission), so a loss lands on a chosen frame rather than on
// whatever a random schedule and goroutine timing happen to hit.
type seqDropper struct {
	io.ReadWriteCloser
	drop func(seq uint16, nth int) bool

	mu   sync.Mutex
	seen map[uint16]int
}

func (d *seqDropper) Write(p []byte) (int, error) {
	if len(p) >= 3 && p[0] == 'D' { // DATA frame: type | seq(2 BE) | ...
		seq := binary.BigEndian.Uint16(p[1:3])
		d.mu.Lock()
		n := d.seen[seq]
		d.seen[seq]++
		d.mu.Unlock()
		if d.drop(seq, n) {
			return len(p), nil
		}
	}
	return d.ReadWriteCloser.Write(p)
}

// droppingLink joins two endpoints; frames ea sends pass through drop,
// frames eb sends all arrive.
func droppingLink(t *testing.T, cfg arq.Config, drop func(seq uint16, nth int) bool) (ea, eb *arq.Endpoint) {
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
	if ea, err = arq.New(&seqDropper{ReadWriteCloser: ta, drop: drop, seen: map[uint16]int{}}, cfg); err != nil {
		t.Fatal(err)
	}
	if eb, err = arq.New(tb, cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ea.Close(); eb.Close() })
	return ea, eb
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
	// most the six frames from seq 2 on.
	st := ea.Stats()
	if st.FastRetransmits > cfg.MaxRetries+1 {
		t.Fatalf("FastRetransmits = %d, want <= %d", st.FastRetransmits, cfg.MaxRetries+1)
	}
	if limit := (2*cfg.MaxRetries + 1) * 6; st.Retransmits > limit {
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
