package stack

import (
	"bytes"
	"hash"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/arq"
	"repro/internal/chaos"
	"repro/internal/cost"
	"repro/internal/crypto/des"
	"repro/internal/crypto/prng"
	"repro/internal/crypto/sha1"
	"repro/internal/esp"
	"repro/internal/wep"
)

// bufferedPipe is a minimal in-memory duplex transport for tests.
func bufferedPipe() (io.ReadWriter, io.ReadWriter) {
	ab := &half{}
	ab.c = sync.NewCond(&ab.mu)
	ba := &half{}
	ba.c = sync.NewCond(&ba.mu)
	return &end{r: ba, w: ab}, &end{r: ab, w: ba}
}

type half struct {
	mu  sync.Mutex
	c   *sync.Cond
	buf bytes.Buffer
}

type end struct{ r, w *half }

func (e *end) Write(p []byte) (int, error) {
	e.w.mu.Lock()
	defer e.w.mu.Unlock()
	n, _ := e.w.buf.Write(p)
	e.w.c.Broadcast()
	return n, nil
}

func (e *end) Read(p []byte) (int, error) {
	e.r.mu.Lock()
	defer e.r.mu.Unlock()
	for e.r.buf.Len() == 0 {
		e.r.c.Wait()
	}
	return e.r.buf.Read(p)
}

func newESPPair(t *testing.T, seedTx, seedRx string) *ESPPair {
	t.Helper()
	mk := func(seed string) *esp.SA {
		block, err := des.NewTripleCipher(bytes.Repeat([]byte{9}, 24))
		if err != nil {
			t.Fatal(err)
		}
		sa, err := esp.NewSA(7, block, func() hash.Hash { return sha1.New() },
			[]byte("mac-key"), prng.NewDRBG([]byte(seed)))
		if err != nil {
			t.Fatal(err)
		}
		return sa
	}
	return &ESPPair{Out: mk(seedTx), In: mk(seedRx)}
}

// buildPeer assembles a WEP+ESP stack on one transport end. Both peers
// must push layers in the same order.
func buildPeer(t *testing.T, transport io.ReadWriter, espTxSeed, espRxSeed string) *Stack {
	t.Helper()
	s := New(transport)
	wepEP, err := wep.NewEndpoint([]byte{1, 2, 3, 4, 5}, wep.IVSequential)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Push("wep", wepEP, cost.InstrPerByte(cost.RC4)+4); err != nil {
		t.Fatal(err)
	}
	if err := s.Push("esp", newESPPair(t, espTxSeed, espRxSeed), cost.BulkInstrPerByte(cost.DES3, cost.SHA1)); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestLayeredRoundtrip sends application data through ESP-over-WEP in both
// directions — the paper's multi-layer PDA scenario without the TLS top.
func TestLayeredRoundtrip(t *testing.T) {
	a, b := bufferedPipe()
	alice := buildPeer(t, a, "a2b", "b2a")
	bob := buildPeer(t, b, "b2a", "a2b")

	msg := []byte("VPN-bound datagram through WEP+ESP")
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, len(msg))
		if _, err := io.ReadFull(bob.Top(), buf); err != nil {
			done <- err
			return
		}
		if !bytes.Equal(buf, msg) {
			done <- io.ErrUnexpectedEOF
			return
		}
		_, err := bob.Top().Write(buf)
		done <- err
	}()
	if _, err := alice.Top().Write(msg); err != nil {
		t.Fatal(err)
	}
	back := make([]byte, len(msg))
	if _, err := io.ReadFull(alice.Top(), back); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, msg) {
		t.Fatal("echo mismatch")
	}
}

func TestAccountingAndExpansion(t *testing.T) {
	a, b := bufferedPipe()
	alice := buildPeer(t, a, "x", "y")
	bob := buildPeer(t, b, "y", "x")

	msg := bytes.Repeat([]byte{0x55}, 1000)
	go func() {
		buf := make([]byte, len(msg))
		io.ReadFull(bob.Top(), buf) //nolint:errcheck
	}()
	if _, err := alice.Top().Write(msg); err != nil {
		t.Fatal(err)
	}

	rep := alice.Report()
	if len(rep) != 2 || rep[0].Name != "wep" || rep[1].Name != "esp" {
		t.Fatalf("report shape wrong: %+v", rep)
	}
	espStats := rep[1]
	if espStats.PayloadOut != 1000 {
		t.Fatalf("esp payload out = %d", espStats.PayloadOut)
	}
	if espStats.FrameOut <= espStats.PayloadOut {
		t.Fatal("esp adds no framing overhead?")
	}
	wepStats := rep[0]
	// The WEP layer carries the ESP frames, so its payload equals ESP's
	// frame output.
	if wepStats.PayloadOut != espStats.FrameOut {
		t.Fatalf("wep payload (%d) != esp frames (%d)", wepStats.PayloadOut, espStats.FrameOut)
	}
	if alice.WireBytesOut() <= 1000 {
		t.Fatal("wire bytes should exceed payload (layer expansion)")
	}
	if alice.TotalInstr() <= 0 {
		t.Fatal("no instruction cost accrued")
	}
	// ESP (3DES+SHA) must dominate WEP (RC4+CRC) in modeled cost.
	if espStats.Instr <= wepStats.Instr {
		t.Fatal("3DES+SHA layer should out-cost RC4 layer")
	}
}

func TestEmptyStackTopIsTransport(t *testing.T) {
	a, _ := bufferedPipe()
	s := New(a)
	if s.Top() != a {
		t.Fatal("empty stack should expose raw transport")
	}
	if s.WireBytesOut() != 0 || s.TotalInstr() != 0 {
		t.Fatal("empty stack has nonzero accounting")
	}
}

func TestNewLayerValidation(t *testing.T) {
	a, _ := bufferedPipe()
	if _, err := NewLayer("x", nil, &ESPPair{}, 1); err == nil {
		t.Error("accepted nil transport")
	}
	if _, err := NewLayer("x", a, nil, 1); err == nil {
		t.Error("accepted nil protector")
	}
}

func TestCorruptFrameSurfacesError(t *testing.T) {
	a, b := bufferedPipe()
	alice := buildPeer(t, a, "x", "y")
	// Bob shares the WEP key but has a *different* ESP MAC key.
	bobStack := New(b)
	wepEP, _ := wep.NewEndpoint([]byte{1, 2, 3, 4, 5}, wep.IVSequential)
	bobStack.Push("wep", wepEP, 1) //nolint:errcheck
	block, _ := des.NewTripleCipher(bytes.Repeat([]byte{9}, 24))
	badSA, _ := esp.NewSA(7, block, func() hash.Hash { return sha1.New() },
		[]byte("WRONG-mac"), prng.NewDRBG([]byte("y")))
	bobStack.Push("esp", &ESPPair{Out: badSA, In: badSA}, 1) //nolint:errcheck

	errCh := make(chan error, 1)
	go func() {
		buf := make([]byte, 16)
		_, err := bobStack.Top().Read(buf)
		errCh <- err
	}()
	if _, err := alice.Top().Write([]byte("to the wrong peer")); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err == nil {
		t.Fatal("mismatched ESP keys should fail authentication")
	}
}

func TestLargeWriteFragments(t *testing.T) {
	a, b := bufferedPipe()
	alice := buildPeer(t, a, "x", "y")
	bob := buildPeer(t, b, "y", "x")
	big := make([]byte, maxFrame*2+123)
	for i := range big {
		big[i] = byte(i)
	}
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, len(big))
		if _, err := io.ReadFull(bob.Top(), buf); err != nil {
			done <- err
			return
		}
		if !bytes.Equal(buf, big) {
			done <- io.ErrUnexpectedEOF
			return
		}
		done <- nil
	}()
	if _, err := alice.Top().Write(big); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestPipe exercises the exported in-memory duplex transport.
func TestPipe(t *testing.T) {
	a, b := Pipe()
	go func() {
		if _, err := a.Write([]byte("ping")); err != nil {
			t.Error(err)
		}
	}()
	buf := make([]byte, 4)
	if _, err := io.ReadFull(b, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte("ping")) {
		t.Fatalf("got %q", buf)
	}
	// Close ends the write direction: the peer drains then sees EOF.
	if _, err := b.Write([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4)
	if _, err := io.ReadFull(a, got); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Read(got); err != io.EOF {
		t.Fatalf("want EOF after close, got %v", err)
	}
	// Writing into the closed direction fails.
	if _, err := b.Write([]byte("x")); err != io.ErrClosedPipe {
		t.Fatalf("want ErrClosedPipe, got %v", err)
	}
}

func TestLayerName(t *testing.T) {
	a, _ := Pipe()
	wepEP, _ := wep.NewEndpoint([]byte{1, 2, 3, 4, 5}, wep.IVSequential)
	l, err := NewLayer("link", a, wepEP, 1)
	if err != nil {
		t.Fatal(err)
	}
	if l.Name() != "link" {
		t.Fatalf("Name = %q", l.Name())
	}
}

func TestPushOntoNilProtector(t *testing.T) {
	a, _ := Pipe()
	s := New(a)
	if err := s.Push("bad", nil, 1); err == nil {
		t.Fatal("pushed nil protector")
	}
}

// TestReadFrameErrors: truncated frames surface as errors, not hangs.
func TestReadFrameErrors(t *testing.T) {
	if _, err := readFrame(bytes.NewReader([]byte{0x00})); err == nil {
		t.Fatal("accepted truncated header")
	}
	if _, err := readFrame(bytes.NewReader([]byte{0x00, 0x05, 1, 2})); err == nil {
		t.Fatal("accepted truncated body")
	}
	if _, err := appendFrame(nil, make([]byte, 0x10000)); err == nil {
		t.Fatal("accepted oversized frame")
	}
}

// TestFrameBoundSymmetric: MaxWireFrame is enforced identically outbound
// and inbound — a header advertising more than MaxWireFrame is rejected
// before any allocation, with an error naming the bound.
func TestFrameBoundSymmetric(t *testing.T) {
	// Outbound: exactly MaxWireFrame is fine, one more is not.
	unit, err := appendFrame(nil, make([]byte, MaxWireFrame))
	if err != nil {
		t.Fatalf("rejected frame at the bound: %v", err)
	}
	if _, err := appendFrame(nil, make([]byte, MaxWireFrame+1)); err == nil ||
		!strings.Contains(err.Error(), "MaxWireFrame") {
		t.Fatalf("oversized outbound frame: %v", err)
	}
	// Inbound: the frame written at the bound reads back.
	frame, err := readFrame(bytes.NewReader(unit))
	if err != nil || len(frame) != MaxWireFrame {
		t.Fatalf("frame at bound did not read back: %d, %v", len(frame), err)
	}
	// Inbound: a header claiming MaxWireFrame+1 (encodable in the 2-byte
	// length but over the documented bound) is a framing error.
	over := MaxWireFrame + 1
	hdr := []byte{byte(over >> 8), byte(over)}
	if _, err := readFrame(bytes.NewReader(append(hdr, make([]byte, over)...))); err == nil ||
		!strings.Contains(err.Error(), "MaxWireFrame") {
		t.Fatalf("oversized inbound frame: %v", err)
	}
	// A sealed maximum-size payload chunk stays within the wire bound for
	// the stack's own layers (seal overhead < maxSealOverhead).
	if maxFrame+maxSealOverhead != MaxWireFrame {
		t.Fatalf("chunk bound %d + overhead %d != wire bound %d", maxFrame, maxSealOverhead, MaxWireFrame)
	}
}

// TestPipeCloseUnblocksOwnReader is the regression test for the hang
// where Close only closed the write half: a Read blocked on the same
// endpoint stayed blocked forever.
func TestPipeCloseUnblocksOwnReader(t *testing.T) {
	a, _ := Pipe()
	errCh := make(chan error, 1)
	started := make(chan struct{})
	go func() {
		close(started)
		_, err := a.Read(make([]byte, 1))
		errCh <- err
	}()
	<-started
	time.Sleep(5 * time.Millisecond) // let the reader block
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err != io.EOF {
			t.Fatalf("want io.EOF from own closed end, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Read still blocked after local Close")
	}
}

// TestPipeCloseDrainsOwnReader: data buffered before a local Close is
// still readable; EOF comes after the drain.
func TestPipeCloseDrainsOwnReader(t *testing.T) {
	a, b := Pipe()
	if _, err := b.Write([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(a, buf); err != nil || !bytes.Equal(buf, []byte("tail")) {
		t.Fatalf("drain failed: %q, %v", buf, err)
	}
	if _, err := a.Read(buf); err != io.EOF {
		t.Fatalf("want EOF after drain, got %v", err)
	}
	// The peer's writes into the closed end now fail rather than
	// accumulating into a buffer nobody will read.
	if _, err := b.Write([]byte("x")); err != io.ErrClosedPipe {
		t.Fatalf("want ErrClosedPipe for peer write, got %v", err)
	}
}

// TestStackOverARQOverChaos runs the full layered hierarchy over a lossy
// link: WEP+ESP protection above an ARQ reliability layer above a
// fault-injecting channel. The protection layers never see the loss.
func TestStackOverARQOverChaos(t *testing.T) {
	a, b := Pipe()
	linkA, err := chaos.New(a, chaos.Config{Seed: 21, Drop: 0.1, BER: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	linkB, err := chaos.New(b, chaos.Config{Seed: 22, Drop: 0.1, BER: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	acfg := arq.Config{RetransmitTimeout: 5 * time.Millisecond, MaxRetries: 40}
	build := func(link *chaos.FaultyTransport, txSeed, rxSeed string) (*Stack, *arq.Endpoint) {
		s := New(link)
		ep, err := s.PushARQ("arq", acfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		wepEP, err := wep.NewEndpoint([]byte{1, 2, 3, 4, 5}, wep.IVSequential)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Push("wep", wepEP, cost.InstrPerByte(cost.RC4)+4); err != nil {
			t.Fatal(err)
		}
		if err := s.Push("esp", newESPPair(t, txSeed, rxSeed), cost.BulkInstrPerByte(cost.DES3, cost.SHA1)); err != nil {
			t.Fatal(err)
		}
		return s, ep
	}
	alice, epA := build(linkA, "a2b", "b2a")
	bob, epB := build(linkB, "b2a", "a2b")
	defer epA.Close()
	defer epB.Close()

	msg := bytes.Repeat([]byte("lossy-link datagram "), 200) // 4 KB
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, len(msg))
		if _, err := io.ReadFull(bob.Top(), buf); err != nil {
			done <- err
			return
		}
		if !bytes.Equal(buf, msg) {
			done <- io.ErrUnexpectedEOF
			return
		}
		done <- nil
	}()
	if _, err := alice.Top().Write(msg); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	rep := alice.Report()
	if len(rep) != 3 || rep[0].Name != "arq" || rep[1].Name != "wep" || rep[2].Name != "esp" {
		t.Fatalf("report shape wrong: %+v", rep)
	}
	st := epA.Stats()
	if st.Retransmits == 0 {
		t.Fatalf("10%% loss produced no retransmits: %+v", st)
	}
	// The wire figure the radio would be charged for includes the
	// retransmissions: it must exceed the first-transmission bytes.
	if alice.WireBytesOut() != st.BytesOut {
		t.Fatalf("WireBytesOut %d != arq bytes out %d", alice.WireBytesOut(), st.BytesOut)
	}
	if st.BytesOut <= st.PayloadOut {
		t.Fatal("wire bytes should exceed accepted payload")
	}
}
