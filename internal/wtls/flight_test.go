package wtls

import (
	"errors"
	"io"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/crypto/rsa"
)

// writeCounter counts the transport writes made through it.
type writeCounter struct {
	io.ReadWriter
	mu     sync.Mutex
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.writes++
	w.mu.Unlock()
	return w.ReadWriter.Write(p)
}

func (w *writeCounter) count() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.writes
}

// flightDeadline bounds every handshake over net.Pipe: a side that reads
// while its own flight is still unsent deadlocks the pipe, and the
// deadline turns that into a failure instead of a hung test.
const flightDeadline = 10 * time.Second

// deadlinedPipe returns the ends of an unbuffered net.Pipe that give up
// at flightDeadline.
func deadlinedPipe(t *testing.T) (net.Conn, net.Conn) {
	pc, ps := net.Pipe()
	deadline := time.Now().Add(flightDeadline)
	_ = pc.SetDeadline(deadline)
	_ = ps.SetDeadline(deadline)
	t.Cleanup(func() { pc.Close(); ps.Close() })
	return pc, ps
}

// runCounted runs one handshake over the given transport ends, counting
// each side's writes, and returns the two counts.
func runCounted(t *testing.T, name string, cp, sp io.ReadWriter, ccfg, scfg *Config, wantResumed bool) (int, int) {
	t.Helper()
	cw, sw := &writeCounter{ReadWriter: cp}, &writeCounter{ReadWriter: sp}
	client, server := Client(cw, ccfg), Server(sw, scfg)
	srvErr := make(chan error, 1)
	go func() { srvErr <- server.Handshake() }()
	if err := client.Handshake(); err != nil {
		t.Fatalf("%s: client handshake: %v", name, err)
	}
	if err := <-srvErr; err != nil {
		t.Fatalf("%s: server handshake: %v", name, err)
	}
	if got := client.State().Resumed; got != wantResumed {
		t.Fatalf("%s: resumed = %v, want %v", name, got, wantResumed)
	}
	return cw.count(), sw.count()
}

// TestHandshakeFlights pins the flight shape: each side sends each of
// its handshake flights in one transport write. Every case runs first
// over an unbuffered net.Pipe, whose writes block until the peer reads,
// so a flight left unsent before a read fails at the deadline instead of
// passing; then over the never-blocking bufferedPipe.
func TestHandshakeFlights(t *testing.T) {
	for _, tc := range []struct {
		name                       string
		suite                      uint16
		dhe, resume                bool
		clientWrites, serverWrites int
	}{
		{"rsa-3des", 0x000A, false, false, 2, 2},
		{"dhe-3des", 0x0016, true, false, 2, 2},
		{"resumed-rc4", 0x0004, false, true, 2, 1},
	} {
		for _, transport := range []string{"net.Pipe", "buffered"} {
			name := tc.name + "/" + transport
			ccfg, scfg := clientConfig(t), serverConfig(t)
			ccfg.Suites = []uint16{tc.suite}
			scfg.Suites = []uint16{tc.suite}
			if tc.dhe {
				scfg.DHGroup = testDHGroup(t)
			}
			if tc.resume {
				ccfg.SessionCache, scfg.SessionCache = NewSessionCache(), NewSessionCache()
				cp, sp := deadlinedPipe(t)
				runCounted(t, name+" (prime)", cp, sp, ccfg, scfg, false)
			}
			cp, sp := bufferedPipe()
			if transport == "net.Pipe" {
				cp, sp = deadlinedPipe(t)
			}
			cw, sw := runCounted(t, name, cp, sp, ccfg, scfg, tc.resume)
			if cw != tc.clientWrites || sw != tc.serverWrites {
				t.Errorf("%s: writes client %d server %d, want %d and %d",
					name, cw, sw, tc.clientWrites, tc.serverWrites)
			}
		}
	}
}

// TestMidFlightAlert fails a DHE server's ServerKeyExchange signature
// after ServerHello and Certificate are already in its first flight. The
// fatal alert must reach the client in the same write as what the flight
// held, the client must fail with that alert rather than wait, and no
// record may follow the alert on the wire.
func TestMidFlightAlert(t *testing.T) {
	ccfg, scfg := clientConfig(t), serverConfig(t)
	ccfg.Suites = []uint16{0x0016}
	scfg.Suites = []uint16{0x0016}
	scfg.DHGroup = testDHGroup(t)
	scfg.RSAOptions = &rsa.Options{VerifyAfterSign: true, Fault: &rsa.Fault{FlipBit: 3}}

	pc, ps := deadlinedPipe(t)
	stap := &wireTap{rw: ps}
	sw := &writeCounter{ReadWriter: stap}
	client, server := Client(pc, ccfg), Server(sw, scfg)
	srvErr := make(chan error, 1)
	go func() { srvErr <- server.Handshake() }()

	err := client.Handshake()
	var ae *AlertError
	if !errors.As(err, &ae) || ae.Description != AlertHandshakeFailed {
		t.Fatalf("client handshake = %v, want a handshake_failure *AlertError", err)
	}
	if err := <-srvErr; !errors.Is(err, rsa.ErrFaultDetected) {
		t.Fatalf("server handshake = %v, want rsa.ErrFaultDetected", err)
	}
	if n := sw.count(); n != 1 {
		t.Errorf("server made %d writes, want 1 (the flight so far and its alert)", n)
	}

	stap.mu.Lock()
	wire := append([]byte(nil), stap.out.Bytes()...)
	stap.mu.Unlock()
	var types []uint8
	var last []byte
	for len(wire) >= recordHeaderLen {
		n := int(wire[3])<<8 | int(wire[4])
		if len(wire) < recordHeaderLen+n {
			t.Fatalf("torn record on the wire: %d bytes left, record needs %d", len(wire), recordHeaderLen+n)
		}
		types = append(types, wire[0])
		last = wire[recordHeaderLen : recordHeaderLen+n]
		wire = wire[recordHeaderLen+n:]
	}
	if len(wire) != 0 {
		t.Fatalf("%d trailing bytes after the last record", len(wire))
	}
	if want := []uint8{recordHandshake, recordHandshake, recordAlert}; !slices.Equal(types, want) {
		t.Fatalf("server record types %v, want %v (ServerHello, Certificate, alert)", types, want)
	}
	if len(last) != 2 || last[0] != alertLevelFatal || last[1] != AlertHandshakeFailed {
		t.Fatalf("last record %x, want a fatal handshake_failure alert", last)
	}
}
