package wtls

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"sync"
	"testing"
)

// wireTap records every byte written through it, so a test can pin one
// direction of a session's wire.
type wireTap struct {
	rw  io.ReadWriter
	mu  sync.Mutex
	out bytes.Buffer
}

func (w *wireTap) Read(p []byte) (int, error) { return w.rw.Read(p) }

func (w *wireTap) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.out.Write(p)
	w.mu.Unlock()
	return w.rw.Write(p)
}

func (w *wireTap) digest() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	sum := sha256.Sum256(w.out.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestHandshakeWireDigest pins the exact record bytes both sides put on
// the wire, for a full RSA handshake on 3DES and on RC4, a resumption of
// the RC4 session and a full DHE handshake. Each session runs one echo
// and a client close_notify. Every DRBG is seeded, so any change to
// record framing, sealing, message order or key schedule moves a digest.
// The sessions run in order in one test: the resumption needs the caches
// the RC4 session filled.
func TestHandshakeWireDigest(t *testing.T) {
	clientCache, serverCache := NewSessionCache(), NewSessionCache()
	for _, tc := range []struct {
		name        string
		suite       uint16
		dhe, cache  bool
		wantResumed bool
		client2srv  string
		srv2client  string
	}{
		{"rsa-3des", 0x000A, false, false, false,
			"6f6db409951b9d954883cd5ce33cf034fd96964eb92c6d1004c8daa9864d3bd4",
			"78b2de2098d10ffcce08fb6a0c403990fc8e2d9875c5e8939e7ad455514072e1"},
		{"rsa-rc4", 0x0004, false, true, false,
			"f860993ab21e01e0a3c9dc77b5e343b30c3132d60f7996c75d7b0ad84629c9a9",
			"e2dc6d088cfb8469304d7e1dd40c661adc561dfd26eeac9ad72cab251d76bfbf"},
		{"resumed-rc4", 0x0004, false, true, true,
			"cb8c2f621daf241d89b686463c077ecbd332a267df903985c30ffdb44ca2c354",
			"4bfc8660db2cca17211c4c0757f2b956c3989e6f3ca0219d90e8f99eded6d9e2"},
		// The DHE row also pins the group TestDHGroupPinned pins.
		{"dhe-3des", 0x0016, true, false, false,
			"280d3d12333b96de4cccc50fc997675dfbb26a2157ff03d9929d80b96db690c4",
			"23a1aeb4d0b9b44fc37eace5db8f41d6b2bc2e6ca4327cba9f829c77dede450b"},
	} {
		ccfg, scfg := clientConfig(t), serverConfig(t)
		ccfg.Suites = []uint16{tc.suite}
		scfg.Suites = []uint16{tc.suite}
		if tc.dhe {
			scfg.DHGroup = testDHGroup(t)
		}
		if tc.cache {
			ccfg.SessionCache, scfg.SessionCache = clientCache, serverCache
		}
		cp, sp := bufferedPipe()
		ctap, stap := &wireTap{rw: cp}, &wireTap{rw: sp}
		client, server := Client(ctap, ccfg), Server(stap, scfg)
		srvErr := make(chan error, 1)
		go func() { srvErr <- server.Handshake() }()
		if err := client.Handshake(); err != nil {
			t.Fatalf("%s: client handshake: %v", tc.name, err)
		}
		if err := <-srvErr; err != nil {
			t.Fatalf("%s: server handshake: %v", tc.name, err)
		}
		if got := client.State().Resumed; got != tc.wantResumed {
			t.Fatalf("%s: resumed = %v, want %v", tc.name, got, tc.wantResumed)
		}
		roundtrip(t, client, server, []byte("wire digest echo "+tc.name))
		if err := client.Close(); err != nil {
			t.Fatal(err)
		}
		if got := ctap.digest(); got != tc.client2srv {
			t.Errorf("%s: client->server wire sha256 = %s, want %s", tc.name, got, tc.client2srv)
		}
		if got := stap.digest(); got != tc.srv2client {
			t.Errorf("%s: server->client wire sha256 = %s, want %s", tc.name, got, tc.srv2client)
		}
	}
}
