package wtls

import (
	"bytes"
	stdhmac "crypto/hmac"
	stdsha1 "crypto/sha1"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/crypto/dh"
	"repro/internal/crypto/prng"
	"repro/internal/crypto/rsa"
	"repro/internal/suite"
)

// test PKI, generated once (RSA keygen dominates test time otherwise).
var (
	testCA     *CA
	testKey    *rsa.PrivateKey
	testCert   *Certificate
	testDHMade bool
)

func testPKI(t testing.TB) (*CA, *rsa.PrivateKey, *Certificate) {
	t.Helper()
	if testCA == nil {
		var err error
		testCA, err = NewCA("TestRoot", prng.NewDRBG([]byte("ca-seed")), 512)
		if err != nil {
			t.Fatal(err)
		}
		testKey, err = rsa.GenerateKey(prng.NewDRBG([]byte("server-seed")), 512)
		if err != nil {
			t.Fatal(err)
		}
		testCert, err = testCA.Issue("gateway.example", 1, &testKey.PublicKey)
		if err != nil {
			t.Fatal(err)
		}
	}
	_ = testDHMade
	return testCA, testKey, testCert
}

func serverConfig(t testing.TB) *Config {
	ca, key, cert := testPKI(t)
	_ = ca
	return &Config{
		Rand:        prng.NewDRBG([]byte("server-rand")),
		Certificate: cert,
		PrivateKey:  key,
	}
}

func clientConfig(t testing.TB) *Config {
	ca, _, _ := testPKI(t)
	return &Config{
		Rand:       prng.NewDRBG([]byte("client-rand")),
		RootCA:     &ca.Key.PublicKey,
		ServerName: "gateway.example",
	}
}

// handshakePair runs a client/server handshake over a pipe and returns
// both ends; the server runs in a goroutine whose error lands on srvErr.
func handshakePair(t *testing.T, ccfg, scfg *Config) (*Conn, *Conn, chan error) {
	t.Helper()
	cp, sp := bufferedPipe()
	client := Client(cp, ccfg)
	server := Server(sp, scfg)
	srvErr := make(chan error, 1)
	go func() { srvErr <- server.Handshake() }()
	if err := client.Handshake(); err != nil {
		t.Fatalf("client handshake: %v", err)
	}
	if err := <-srvErr; err != nil {
		t.Fatalf("server handshake: %v", err)
	}
	return client, server, srvErr
}

func TestHandshakeAndEcho(t *testing.T) {
	client, server, _ := handshakePair(t, clientConfig(t), serverConfig(t))
	if !client.State().HandshakeDone || !server.State().HandshakeDone {
		t.Fatal("handshake state not set")
	}
	if client.State().Suite.ID != server.State().Suite.ID {
		t.Fatal("suite mismatch")
	}

	msg := []byte("GET /wallet HTTP/1.0\r\n\r\n")
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, 256)
		n, err := server.Read(buf)
		if err != nil {
			done <- err
			return
		}
		_, err = server.Write(buf[:n])
		done <- err
	}()
	if _, err := client.Write(msg); err != nil {
		t.Fatal(err)
	}
	echo := make([]byte, len(msg))
	if _, err := io.ReadFull(client, echo); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(echo, msg) {
		t.Fatalf("echo = %q, want %q", echo, msg)
	}
}

// TestEverySuiteHandshakes runs the full handshake under every registered
// suite — the Section 3.1 flexibility matrix end to end.
func TestEverySuiteHandshakes(t *testing.T) {
	for _, s := range suite.All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			scfg := serverConfig(t)
			ccfg := clientConfig(t)
			ccfg.Suites = []uint16{s.ID}
			scfg.Suites = []uint16{s.ID}
			if s.KexName == "DHE" {
				scfg.DHGroup = testDHGroup(t)
			}
			client, server, _ := handshakePair(t, ccfg, scfg)
			if client.State().Suite.ID != s.ID {
				t.Fatalf("negotiated %#04x, want %#04x", client.State().Suite.ID, s.ID)
			}
			roundtrip(t, client, server, []byte("suite "+s.Name))
		})
	}
}

func roundtrip(t *testing.T, client, server *Conn, msg []byte) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, len(msg))
		if _, err := io.ReadFull(server, buf); err != nil {
			done <- err
			return
		}
		if !bytes.Equal(buf, msg) {
			done <- errors.New("server received wrong plaintext")
			return
		}
		_, err := server.Write(buf)
		done <- err
	}()
	if _, err := client.Write(msg); err != nil {
		t.Fatal(err)
	}
	back := make([]byte, len(msg))
	if _, err := io.ReadFull(client, back); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, msg) {
		t.Fatal("client received wrong echo")
	}
}

func testDHGroup(t testing.TB) *dh.Group {
	g, err := dh.TestGroup512(prng.NewDRBG([]byte("wtls-dh-group")))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestDHGroupPinned pins the group the DHE tests run on. The search may
// get faster, but the "wtls-dh-group" seed must keep finding this 512-bit
// prime.
func TestDHGroupPinned(t *testing.T) {
	p := testDHGroup(t).P
	if n := p.BitLen(); n != 512 {
		t.Fatalf("wtls-dh-group P has %d bits, want 512", n)
	}
	h := sha256.Sum256(p.Bytes())
	if got, want := hex.EncodeToString(h[:8]), "17b4f3e128d25a13"; got != want {
		t.Fatalf("wtls-dh-group P digest %s, want %s", got, want)
	}
}

func TestSuiteNegotiationPreference(t *testing.T) {
	scfg := serverConfig(t)
	ccfg := clientConfig(t)
	ccfg.Suites = []uint16{0x0004, 0x000A} // client prefers RC4_MD5
	client, _, _ := handshakePair(t, ccfg, scfg)
	if got := client.State().Suite.Name; got != "RSA_WITH_RC4_128_MD5" {
		t.Fatalf("negotiated %s", got)
	}
}

func TestNoCommonSuite(t *testing.T) {
	cp, sp := bufferedPipe()
	scfg := serverConfig(t)
	scfg.Suites = []uint16{0x000A}
	ccfg := clientConfig(t)
	ccfg.Suites = []uint16{0x0004}
	client := Client(cp, ccfg)
	server := Server(sp, scfg)
	srvErr := make(chan error, 1)
	go func() { srvErr <- server.Handshake() }()
	cerr := client.Handshake()
	serr := <-srvErr
	if cerr == nil || serr == nil {
		t.Fatalf("handshake should fail on both ends (client %v, server %v)", cerr, serr)
	}
	var alert *AlertError
	if !errors.As(cerr, &alert) || alert.Description != AlertHandshakeFailed {
		t.Fatalf("client should see handshake_failed alert, got %v", cerr)
	}
}

func TestWrongServerNameRejected(t *testing.T) {
	cp, sp := bufferedPipe()
	ccfg := clientConfig(t)
	ccfg.ServerName = "evil.example"
	client := Client(cp, ccfg)
	server := Server(sp, serverConfig(t))
	srvErr := make(chan error, 1)
	go func() { srvErr <- server.Handshake() }()
	if err := client.Handshake(); err == nil {
		t.Fatal("client accepted certificate for wrong subject")
	}
	<-srvErr // server fails too (alert); either way it must return
}

func TestUntrustedCARejected(t *testing.T) {
	cp, sp := bufferedPipe()
	ccfg := clientConfig(t)
	rogue, err := NewCA("Rogue", prng.NewDRBG([]byte("rogue")), 512)
	if err != nil {
		t.Fatal(err)
	}
	ccfg.RootCA = &rogue.Key.PublicKey
	client := Client(cp, ccfg)
	server := Server(sp, serverConfig(t))
	srvErr := make(chan error, 1)
	go func() { srvErr <- server.Handshake() }()
	cerr := client.Handshake()
	if cerr == nil {
		t.Fatal("client trusted a certificate from the wrong CA")
	}
	// The client's error names the alert it sent and still unwraps to
	// the verification failure; the server's is the alert it received.
	if !strings.Contains(cerr.Error(), "sent bad_certificate alert") || !errors.Is(cerr, rsa.ErrVerification) {
		t.Fatalf("client error %q: want the sent alert named, wrapping rsa.ErrVerification", cerr)
	}
	var alert *AlertError
	if serr := <-srvErr; !errors.As(serr, &alert) || alert.Description != AlertBadCertificate ||
		!strings.Contains(serr.Error(), "bad_certificate") {
		t.Fatalf("server error %v: want a named bad_certificate alert", serr)
	}
}

func TestSessionResumption(t *testing.T) {
	clientCache := NewSessionCache()
	serverCache := NewSessionCache()

	run := func() (*Conn, *Conn) {
		scfg := serverConfig(t)
		scfg.SessionCache = serverCache
		ccfg := clientConfig(t)
		ccfg.SessionCache = clientCache
		c, s, _ := handshakePair(t, ccfg, scfg)
		return c, s
	}

	c1, _ := run()
	if c1.State().Resumed {
		t.Fatal("first handshake cannot be resumed")
	}
	c2, s2 := run()
	if !c2.State().Resumed || !s2.State().Resumed {
		t.Fatal("second handshake should resume")
	}
	if !bytes.Equal(c1.State().SessionID, c2.State().SessionID) {
		t.Fatal("resumed session ID differs")
	}
	// Resumed handshake must be drastically cheaper.
	full := c1.Metrics().HandshakeInstr
	res := c2.Metrics().HandshakeInstr
	if res*10 > full {
		t.Fatalf("resumption instr %v not ≪ full %v", res, full)
	}
	roundtrip(t, c2, s2, []byte("resumed traffic"))
}

func TestMetricsAccrue(t *testing.T) {
	client, server, _ := handshakePair(t, clientConfig(t), serverConfig(t))
	msg := bytes.Repeat([]byte("x"), 1000)
	roundtrip(t, client, server, msg)
	m := client.Metrics()
	if m.FullHandshakes != 1 || m.HandshakeInstr <= 0 {
		t.Fatalf("handshake metrics wrong: %+v", m)
	}
	if m.AppBytesOut != 1000 || m.AppBytesIn != 1000 {
		t.Fatalf("app byte metrics wrong: %+v", m)
	}
	if m.BulkInstr <= 0 {
		t.Fatal("bulk instructions not accrued")
	}
}

func TestTamperedRecordDetected(t *testing.T) {
	cp, sp := bufferedPipe()
	client := Client(&corruptAfterHandshake{rw: cp}, clientConfig(t))
	server := Server(sp, serverConfig(t))
	srvErr := make(chan error, 1)
	srvRead := make(chan error, 1)
	go func() {
		srvErr <- server.Handshake()
		buf := make([]byte, 64)
		_, err := server.Read(buf)
		srvRead <- err
	}()
	if err := client.Handshake(); err != nil {
		t.Fatal(err)
	}
	if err := <-srvErr; err != nil {
		t.Fatal(err)
	}
	cc := client.conn.(*corruptAfterHandshake)
	cc.armed = true
	if _, err := client.Write([]byte("tamper me, 16B+")); err != nil {
		t.Fatal(err)
	}
	err := <-srvRead
	if err == nil {
		t.Fatal("server accepted a tampered record")
	}
}

// corruptAfterHandshake flips a bit in the record body of writes once
// armed, simulating an on-air attacker.
type corruptAfterHandshake struct {
	rw    io.ReadWriter
	armed bool
}

func (c *corruptAfterHandshake) Read(p []byte) (int, error) { return c.rw.Read(p) }

func (c *corruptAfterHandshake) Write(p []byte) (int, error) {
	if c.armed && len(p) > 5 {
		q := append([]byte{}, p...)
		q[len(q)-1] ^= 0x80
		return c.rw.Write(q)
	}
	return c.rw.Write(p)
}

func TestCloseNotify(t *testing.T) {
	client, server, _ := handshakePair(t, clientConfig(t), serverConfig(t))
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, 16)
		_, err := server.Read(buf)
		done <- err
	}()
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != io.EOF {
		t.Fatalf("server Read after close_notify = %v, want io.EOF", err)
	}
	if _, err := client.Write([]byte("x")); err == nil {
		t.Fatal("write after close succeeded")
	}
}

// TestEmptyRecordFlood scripts a peer that sends valid zero-length
// application records: more than maxEmptyRecords in a row fail the
// reader with AlertUnexpectedMessage, and exactly that many followed by
// data still deliver the data.
func TestEmptyRecordFlood(t *testing.T) {
	for _, tc := range []struct {
		empties int
		data    string
		wantErr bool
	}{
		{maxEmptyRecords + 1, "", true},
		{maxEmptyRecords, "after the flood", false},
	} {
		client, server, _ := handshakePair(t, clientConfig(t), serverConfig(t))
		for i := 0; i < tc.empties; i++ {
			if err := client.writeRecords(recordApplicationData, [][]byte{nil}, nil, true); err != nil {
				t.Fatal(err)
			}
		}
		if tc.data != "" {
			if _, err := client.Write([]byte(tc.data)); err != nil {
				t.Fatal(err)
			}
		}
		buf := make([]byte, 64)
		var n int
		var err error
		read := make(chan struct{})
		go func() {
			n, err = server.Read(buf)
			close(read)
		}()
		select {
		case <-read:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d empty records: Read still blocked", tc.empties)
		}
		if !tc.wantErr {
			if err != nil || string(buf[:n]) != tc.data {
				t.Fatalf("%d empty records then data: Read = %q, %v; want %q", tc.empties, buf[:n], err, tc.data)
			}
			continue
		}
		if err == nil {
			t.Fatalf("%d empty records: Read returned %q, want an error", tc.empties, buf[:n])
		}
		// The server aborted with unexpected_message.
		var alert *AlertError
		if _, err := client.Read(buf); !errors.As(err, &alert) || alert.Description != AlertUnexpectedMessage {
			t.Fatalf("client saw %v, want alert %d", err, AlertUnexpectedMessage)
		}
	}
}

func TestLargeTransferFragments(t *testing.T) {
	client, server, _ := handshakePair(t, clientConfig(t), serverConfig(t))
	big := make([]byte, 3*maxRecordPayload+777)
	for i := range big {
		big[i] = byte(i * 7)
	}
	done := make(chan error, 1)
	go func() {
		got := make([]byte, len(big))
		if _, err := io.ReadFull(server, got); err != nil {
			done <- err
			return
		}
		if !bytes.Equal(got, big) {
			done <- errors.New("large transfer corrupted")
			return
		}
		done <- nil
	}()
	if _, err := client.Write(big); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if client.Metrics().RecordsSent < 4 {
		t.Fatal("large write should span multiple records")
	}
}

func TestHandshakeRequiresRand(t *testing.T) {
	cp, _ := bufferedPipe()
	c := Client(cp, &Config{})
	if err := c.Handshake(); err == nil {
		t.Fatal("handshake without Rand succeeded")
	}
}

func TestCertificateRoundtrip(t *testing.T) {
	_, _, cert := testPKI(t)
	enc := cert.Marshal()
	dec, err := UnmarshalCertificate(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Subject != cert.Subject || dec.Issuer != cert.Issuer ||
		dec.Serial != cert.Serial || dec.PublicKey.N.Cmp(cert.PublicKey.N) != 0 {
		t.Fatal("certificate roundtrip lost fields")
	}
	if _, err := UnmarshalCertificate(enc[:10]); err == nil {
		t.Fatal("accepted truncated certificate")
	}
	if _, err := UnmarshalCertificate(append(enc, 0xff)); err == nil {
		t.Fatal("accepted certificate with trailing bytes")
	}
}

func TestCertificateTamperDetected(t *testing.T) {
	ca, _, cert := testPKI(t)
	evil := *cert
	evil.Subject = "evil.example"
	if err := evil.Verify(&ca.Key.PublicKey, ""); err == nil {
		t.Fatal("subject tamper not detected")
	}
}

func TestPRFProperties(t *testing.T) {
	h := newPRFMAC()
	a := prf(h, []byte("secret"), "label", []byte("seed"), 40)
	b := prf(h, []byte("secret"), "label", []byte("seed"), 40)
	if !bytes.Equal(a, b) {
		t.Fatal("PRF not deterministic")
	}
	if bytes.Equal(a, prf(h, []byte("secret2"), "label", []byte("seed"), 40)) {
		t.Fatal("PRF ignores secret")
	}
	if bytes.Equal(a, prf(h, []byte("secret"), "label2", []byte("seed"), 40)) {
		t.Fatal("PRF ignores label")
	}
	if bytes.Equal(a, prf(h, []byte("secret"), "label", []byte("seed2"), 40)) {
		t.Fatal("PRF ignores seed")
	}
	long := prf(h, []byte("s"), "l", []byte("x"), 100)
	if !bytes.Equal(long[:40], prf(h, []byte("s"), "l", []byte("x"), 40)) {
		t.Fatal("PRF prefix property violated")
	}
}

// TestPRFAgainstStdlib diffs prf against the P_hash construction built
// on crypto/hmac, for secrets shorter than, equal to and longer than the
// SHA-1 block and outputs that end inside or on an HMAC block. One HMAC
// serves every case, as one serves a whole handshake, so each case also
// checks that re-keying leaves nothing of the previous secret behind.
func TestPRFAgainstStdlib(t *testing.T) {
	ref := func(secret []byte, label string, seed []byte, n int) []byte {
		ls := append([]byte(label), seed...)
		var out []byte
		a := ls
		for len(out) < n {
			m := stdhmac.New(stdsha1.New, secret)
			m.Write(a)
			a = m.Sum(nil)
			m = stdhmac.New(stdsha1.New, secret)
			m.Write(a)
			m.Write(ls)
			out = m.Sum(out)
		}
		return out[:n]
	}
	seed := bytes.Repeat([]byte{0x5a, 0x17, 0xc3}, 22)
	h := newPRFMAC()
	for _, sl := range []int{0, 1, 20, 48, 64, 65, 100} {
		secret := bytes.Repeat([]byte{byte(sl) | 1}, sl)
		for _, n := range []int{0, 1, finishedLen, 20, 21, masterSecretLen, 104} {
			for _, label := range []string{"", "master secret", "key expansion"} {
				got := prf(h, secret, label, seed[:n%len(seed)], n)
				if want := ref(secret, label, seed[:n%len(seed)], n); !bytes.Equal(got, want) {
					t.Fatalf("secret %d B, label %q, n %d: got %x, want %x", sl, label, n, got, want)
				}
			}
		}
	}
}

// TestPRFReusedMACAllocs: with the HMAC reused, a key-block expansion
// allocates only its scratch buffer and its output.
func TestPRFReusedMACAllocs(t *testing.T) {
	h := newPRFMAC()
	master := bytes.Repeat([]byte{7}, masterSecretLen)
	seed := bytes.Repeat([]byte{9}, 64)
	if n := testing.AllocsPerRun(100, func() { prf(h, master, "key expansion", seed, 104) }); n > 2 {
		t.Fatalf("prf with a reused HMAC made %.0f allocations, want <= 2", n)
	}
}

func TestKeyDerivationSeparation(t *testing.T) {
	master := []byte("0123456789012345678901234567890123456789ажabcdef")[:48]
	cr := bytes.Repeat([]byte{1}, 32)
	sr := bytes.Repeat([]byte{2}, 32)
	h := newPRFMAC()
	km := deriveKeys(h, master, cr, sr, 20, 24, 8)
	if bytes.Equal(km.clientMAC, km.serverMAC) || bytes.Equal(km.clientKey, km.serverKey) {
		t.Fatal("directional keys must differ")
	}
	if len(km.clientIV) != 8 || len(km.serverIV) != 8 {
		t.Fatal("IV lengths wrong")
	}
	km2 := deriveKeys(h, master, sr, cr, 20, 24, 8) // swapped randoms
	if bytes.Equal(km.clientKey, km2.clientKey) {
		t.Fatal("key block ignores random ordering")
	}
}

// TestDHEServerKeyExchangeTamper: a man-in-the-middle replacing the DH
// parameters without the server key cannot produce a valid signature.
func TestDHEServerKeyExchangeTamper(t *testing.T) {
	cp, sp := bufferedPipe()
	scfg := serverConfig(t)
	scfg.Suites = []uint16{0x0016}
	scfg.DHGroup = testDHGroup(t)
	ccfg := clientConfig(t)
	ccfg.Suites = []uint16{0x0016}
	client := Client(&skxCorruptor{rw: cp}, ccfg)
	server := Server(sp, scfg)
	srvErr := make(chan error, 1)
	go func() { srvErr <- server.Handshake() }()
	if err := client.Handshake(); err == nil {
		t.Fatal("client accepted tampered DH parameters")
	}
	<-srvErr
}

// skxCorruptor flips a bit inside the 3rd record the client reads (the
// ServerKeyExchange in the DHE flight: hello, cert, skx). It parses the
// record framing in the byte stream, so it is independent of how the
// reader chunks its transport reads.
type skxCorruptor struct {
	rw     io.ReadWriter
	rec    int // records whose header has been seen
	hdr    int // header bytes of the current record consumed
	remain int // body bytes of the current record remaining
	hi, lo byte
	done   bool
}

func (c *skxCorruptor) Write(p []byte) (int, error) { return c.rw.Write(p) }

func (c *skxCorruptor) Read(p []byte) (int, error) {
	n, err := c.rw.Read(p)
	buf := p[:n]
	for len(buf) > 0 {
		if c.remain == 0 && c.hdr < 5 {
			switch c.hdr {
			case 3:
				c.hi = buf[0]
			case 4:
				c.lo = buf[0]
			}
			c.hdr++
			buf = buf[1:]
			if c.hdr == 5 {
				c.rec++
				c.remain = int(c.hi)<<8 | int(c.lo)
				c.hdr = 0
			}
			continue
		}
		span := c.remain
		if span > len(buf) {
			span = len(buf)
		}
		if c.rec == 3 && !c.done && span > 0 {
			buf[span/2] ^= 0x40
			c.done = true
		}
		c.remain -= span
		buf = buf[span:]
	}
	return n, err
}

// TestResumptionSkippedWhenSuiteNotOffered: a cached session whose suite
// the client no longer offers falls back to a full handshake.
func TestResumptionSkippedWhenSuiteNotOffered(t *testing.T) {
	clientCache := NewSessionCache()
	serverCache := NewSessionCache()
	run := func(suites []uint16) *Conn {
		scfg := serverConfig(t)
		scfg.SessionCache = serverCache
		ccfg := clientConfig(t)
		ccfg.SessionCache = clientCache
		ccfg.Suites = suites
		c, _, _ := handshakePair(t, ccfg, scfg)
		return c
	}
	c1 := run([]uint16{0x0004}) // RC4_128_MD5
	if c1.State().Resumed {
		t.Fatal("first handshake resumed")
	}
	c2 := run([]uint16{0x000A}) // now only 3DES offered
	if c2.State().Resumed {
		t.Fatal("resumed a session whose suite is no longer offered")
	}
	if c2.State().Suite.ID != 0x000A {
		t.Fatalf("negotiated %#04x", c2.State().Suite.ID)
	}
}

// TestSessionCacheSize sanity-checks the cache bookkeeping.
func TestSessionCacheSize(t *testing.T) {
	cache := NewSessionCache()
	if cache.Size() != 0 {
		t.Fatal("fresh cache not empty")
	}
	scfg := serverConfig(t)
	scfg.SessionCache = cache
	ccfg := clientConfig(t)
	handshakePair(t, ccfg, scfg)
	if cache.Size() != 1 {
		t.Fatalf("server cache has %d sessions, want 1", cache.Size())
	}
}

// TestDowngradeAttackDetected: a man-in-the-middle rewrites the client's
// offered suite list to force the weak export suite. The hellos are
// unauthenticated in flight, but both Finished messages MAC the
// *transcript each side saw*, so the tampering must surface before any
// application data flows.
func TestDowngradeAttackDetected(t *testing.T) {
	cp, sp := bufferedPipe()
	ccfg := clientConfig(t)
	ccfg.Suites = []uint16{0x002F, 0x0003} // strong preferred, export offered
	scfg := serverConfig(t)
	client := Client(&downgrader{rw: cp}, ccfg)
	server := Server(sp, scfg)
	srvErr := make(chan error, 1)
	go func() { srvErr <- server.Handshake() }()
	cerr := client.Handshake()
	serr := <-srvErr
	if cerr == nil && serr == nil {
		// Both sides finished: the downgrade must NOT have taken hold.
		if client.State().Suite.ID == 0x0003 {
			t.Fatal("MITM successfully downgraded the connection")
		}
		return
	}
	// Expected: the handshake fails (Finished mismatch / alert).
}

// downgrader rewrites the first record (the ClientHello) so that only the
// export suite 0x0003 is offered.
type downgrader struct {
	rw   io.ReadWriter
	done bool
}

func (d *downgrader) Read(p []byte) (int, error) { return d.rw.Read(p) }

func (d *downgrader) Write(p []byte) (int, error) {
	if !d.done && len(p) > 5 && p[0] == recordHandshake {
		d.done = true
		frag := p[5:]
		if t, body, err := splitHandshake(frag); err == nil && t == typeClientHello {
			if ch, err := parseClientHello(body); err == nil {
				ch.suites = []uint16{0x0003}
				forged := ch.marshal()
				hdr := []byte{recordHandshake, p[1], p[2], byte(len(forged) >> 8), byte(len(forged))}
				if _, err := d.rw.Write(append(hdr, forged...)); err != nil {
					return 0, err
				}
				return len(p), nil
			}
		}
	}
	return d.rw.Write(p)
}
