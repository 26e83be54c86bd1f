package wtls

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"
)

// tcpPair returns connected loopback TCP ends — the real-socket
// counterpart of bufferedPipe.
func tcpPair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		ch <- res{c, err}
	}()
	cli, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		cli.Close()
		t.Fatal(r.err)
	}
	t.Cleanup(func() { cli.Close(); r.c.Close() })
	return cli, r.c
}

// TestConcurrentReadWriteOneHandshake hammers both ends from reader and
// writer goroutines that race to trigger the lazy handshake. Exactly
// one full handshake may happen per side, and every byte must arrive
// intact. Run under -race this also proves the locking story.
func TestConcurrentReadWriteOneHandshake(t *testing.T) {
	rawC, rawS := tcpPair(t)
	client := Client(rawC, clientConfig(t))
	server := Server(rawS, serverConfig(t))

	const msgs = 32
	payload := bytes.Repeat([]byte{0x5A}, 700)

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	echo := func(c *Conn) { // server side: read then write back
		defer wg.Done()
		buf := make([]byte, len(payload))
		for i := 0; i < msgs; i++ {
			if _, err := io.ReadFull(c, buf); err != nil {
				errs <- err
				return
			}
			if _, err := c.Write(buf); err != nil {
				errs <- err
				return
			}
		}
	}
	// Client writer and client reader start concurrently — both race to
	// perform the handshake.
	wg.Add(3)
	go echo(server)
	go func() {
		defer wg.Done()
		for i := 0; i < msgs; i++ {
			if _, err := client.Write(payload); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		buf := make([]byte, len(payload))
		for i := 0; i < msgs; i++ {
			if _, err := io.ReadFull(client, buf); err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(buf, payload) {
				errs <- errors.New("echo corrupted")
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, c := range []*Conn{client, server} {
		m := c.Metrics()
		if m.FullHandshakes != 1 || m.ResumedHandshakes != 0 {
			t.Fatalf("handshake count: full=%d resumed=%d, want exactly 1 full",
				m.FullHandshakes, m.ResumedHandshakes)
		}
	}
}

// TestNetConnDeadlines verifies deadline plumbing end to end: a read
// deadline on the WTLS conn surfaces as a net.Error timeout, and the
// connection is still usable for the error inspection contract.
func TestNetConnDeadlines(t *testing.T) {
	rawC, rawS := tcpPair(t)
	client := Client(rawC, clientConfig(t))
	server := Server(rawS, serverConfig(t))

	done := make(chan error, 1)
	go func() { done <- server.Handshake() }()
	if err := client.Handshake(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	if err := client.SetReadDeadline(time.Now().Add(30 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	_, err := client.Read(buf)
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("read past deadline = %v, want net.Error with Timeout()", err)
	}
}

// TestHandshakeTimeout aborts a handshake against a silent peer via
// SetDeadline — the stalled-gateway scenario.
func TestHandshakeTimeout(t *testing.T) {
	rawC, _ := tcpPair(t) // server end never speaks
	client := Client(rawC, clientConfig(t))
	if err := client.SetDeadline(time.Now().Add(30 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	err := client.Handshake()
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("handshake against silent peer = %v, want timeout", err)
	}
}

// TestDeadlineUnsupportedTransport: over a plain io.ReadWriter (the
// in-memory pipe) deadlines must fail with os.ErrNoDeadline, matching
// the net package convention.
func TestDeadlineUnsupportedTransport(t *testing.T) {
	cEnd, _ := bufferedPipe()
	c := Client(cEnd, clientConfig(t))
	if err := c.SetDeadline(time.Now()); !errors.Is(err, os.ErrNoDeadline) {
		t.Fatalf("SetDeadline over pipe = %v, want os.ErrNoDeadline", err)
	}
	if err := c.SetReadDeadline(time.Now()); !errors.Is(err, os.ErrNoDeadline) {
		t.Fatalf("SetReadDeadline over pipe = %v, want os.ErrNoDeadline", err)
	}
	if err := c.SetWriteDeadline(time.Now()); !errors.Is(err, os.ErrNoDeadline) {
		t.Fatalf("SetWriteDeadline over pipe = %v, want os.ErrNoDeadline", err)
	}
	// Addr placeholders must still be non-nil for net.Conn consumers.
	if c.LocalAddr() == nil || c.RemoteAddr() == nil {
		t.Fatal("nil addrs over pipe transport")
	}
}

// TestNetConnAddrs: over a real socket the addresses are the socket's.
func TestNetConnAddrs(t *testing.T) {
	rawC, _ := tcpPair(t)
	c := Client(rawC, clientConfig(t))
	if c.LocalAddr().String() != rawC.LocalAddr().String() ||
		c.RemoteAddr().String() != rawC.RemoteAddr().String() {
		t.Fatalf("addrs %v/%v do not match socket %v/%v",
			c.LocalAddr(), c.RemoteAddr(), rawC.LocalAddr(), rawC.RemoteAddr())
	}
}

// chunkWriter delivers at most n bytes per Write call — a transport
// that legally short-writes, like a serial link or a full socket
// buffer.
type chunkWriter struct {
	w io.Writer
	n int
}

func (cw *chunkWriter) Write(p []byte) (int, error) {
	if len(p) > cw.n {
		p = p[:cw.n]
	}
	return cw.w.Write(p)
}

// TestWriteRecordShortWrites proves writeFull delivers a framed record
// through a transport that accepts one byte at a time, and that the
// recordReader reassembles it from one-byte reads into the identical
// fragment.
func TestWriteRecordShortWrites(t *testing.T) {
	var sink bytes.Buffer
	frag := bytes.Repeat([]byte{0xC3}, 300)
	wire := append(appendHeader(nil, recordApplicationData, len(frag)), frag...)
	if err := writeFull(&chunkWriter{w: &sink, n: 1}, wire); err != nil {
		t.Fatal(err)
	}
	typ, got, err := newRecordReader(iotest.OneByteReader(&sink)).next()
	if err != nil {
		t.Fatal(err)
	}
	if typ != recordApplicationData || !bytes.Equal(got, frag) {
		t.Fatalf("record reassembly failed: type %d, %d bytes", typ, len(got))
	}
}

// errAfterWriter accepts k bytes total, then fails.
type errAfterWriter struct {
	k int
}

func (w *errAfterWriter) Write(p []byte) (int, error) {
	if w.k <= 0 {
		return 0, errors.New("link down")
	}
	n := len(p)
	if n > w.k {
		n = w.k
	}
	w.k -= n
	if w.k == 0 {
		return n, errors.New("link down")
	}
	return n, nil
}

// zeroWriter accepts nothing and reports no error: a broken transport.
type zeroWriter struct{}

func (zeroWriter) Write([]byte) (int, error) { return 0, nil }

// TestWriteRecordPropagatesWriteError: a transport failing mid-record
// surfaces its own error, and one that makes no progress surfaces
// io.ErrShortWrite instead of spinning.
func TestWriteRecordPropagatesWriteError(t *testing.T) {
	wire := append(appendHeader(nil, recordApplicationData, len("payload")), "payload"...)
	err := writeFull(&errAfterWriter{k: 3}, wire)
	if err == nil || !strings.Contains(err.Error(), "link down") {
		t.Fatalf("mid-record failure = %v, want link down", err)
	}
	if err := writeFull(zeroWriter{}, wire); err != io.ErrShortWrite {
		t.Fatalf("no-progress writer = %v, want io.ErrShortWrite", err)
	}
}

// TestOversizedInboundRejected: a handshake length field claiming more
// than maxHandshakeMsg, or a record length past maxRecordFragment, must
// produce a decode error, not an allocation.
func TestOversizedInboundRejected(t *testing.T) {
	if _, _, err := splitHandshake([]byte{typeClientHello, 0xFF, 0xFF, 0xFF}); err == nil {
		t.Fatal("16MiB handshake length accepted")
	}
	rr := newRecordReader(bytes.NewReader([]byte{recordHandshake, 0x03, 0x01, 0xFF, 0xFF}))
	if _, _, err := rr.next(); err == nil {
		t.Fatal("oversized record length accepted")
	}
	if cap(rr.buf) > minReadBuf {
		t.Fatalf("reader grew to %d bytes on an oversized header", cap(rr.buf))
	}
}

// TestNetConnInterface is the compile-time contract made explicit in a
// test, so a regression reads as a test failure too.
func TestNetConnInterface(t *testing.T) {
	var _ net.Conn = (*Conn)(nil)
}
