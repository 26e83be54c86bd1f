package wtls

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cost"
	"repro/internal/crypto/dh"
	"repro/internal/crypto/hmac"
	"repro/internal/crypto/prng"
	"repro/internal/crypto/rsa"
	"repro/internal/crypto/sha1"
	"repro/internal/obs"
	"repro/internal/obs/prof"
	"repro/internal/suite"
)

// Handshake-level metric handles (record-level ones live in record.go).
var (
	mHandshakesFull    = obs.C("wtls.handshakes_full")
	mHandshakesResumed = obs.C("wtls.handshakes_resumed")
	mHandshakeFailures = obs.C("wtls.handshake_failures")
)

// Static energy/cycle profile frames: one per handshake kind, naming
// the kernel that dominates it (modular exponentiation for the
// public-key kinds, the PRF for a resume).
var hsProfSpans = func() map[cost.HandshakeKind]prof.Span {
	m := make(map[cost.HandshakeKind]prof.Span)
	for _, k := range []cost.HandshakeKind{
		cost.HandshakeRSA1024, cost.HandshakeRSA768, cost.HandshakeRSA512,
		cost.HandshakeDH1024, cost.HandshakeResume,
	} {
		m[k] = prof.Frame("wtls.Handshake/" + string(k) + "/" + cost.HandshakeKernel(k))
	}
	return m
}()

// Config configures a Conn endpoint.
type Config struct {
	// Rand supplies all randomness (hello randoms, premaster, blinding).
	Rand *prng.DRBG
	// Suites are the offered (client) or supported (server) suite IDs,
	// in preference order. Defaults to suite.DefaultServerPreference.
	Suites []uint16

	// Certificate and PrivateKey identify a server.
	Certificate *Certificate
	PrivateKey  *rsa.PrivateKey
	// DHGroup enables DHE suites on a server.
	DHGroup *dh.Group

	// RootCA is the client's trusted CA key.
	RootCA *rsa.PublicKey
	// ServerName is the subject the client expects in the certificate.
	ServerName string

	// SessionCache enables session resumption when set.
	SessionCache *SessionCache

	// RSAOptions tunes the server's private-key operation (blinding,
	// constant-time, CRT) — the tamper-resistance knobs of Section 3.4.
	RSAOptions *rsa.Options
}

func (c *Config) suitesOrDefault() []uint16 {
	if len(c.Suites) > 0 {
		return c.Suites
	}
	return suite.DefaultServerPreference()
}

// session is one resumable session's state (see session.go for the
// sharded cache that stores them).
type session struct {
	id      []byte
	master  []byte
	suiteID uint16
}

// Metrics accumulates the modeled security-processing work of a
// connection, feeding the platform cost accounting (internal/core).
type Metrics struct {
	FullHandshakes    int
	ResumedHandshakes int
	// HandshakeInstr is the modeled instruction cost of connection
	// set-ups (cost model of internal/cost).
	HandshakeInstr float64
	// BulkInstr is the modeled instruction cost of record protection.
	BulkInstr float64
	// AppBytesOut/In count application plaintext through the record layer.
	AppBytesOut, AppBytesIn int
	RecordsSent, RecordsRcv int
}

// Conn is one endpoint of a WTLS connection. It implements net.Conn:
// Read, Write and Close are safe for concurrent use, the first of any
// concurrent Read/Write runs the handshake exactly once, and when the
// underlying transport is itself a net.Conn the deadline methods plumb
// straight through to it (so a timed-out Read or Write surfaces the
// transport's own net.Error). Over a plain io.ReadWriter (the in-memory
// pipes of the simulations) deadlines report os.ErrNoDeadline.
type Conn struct {
	conn     io.ReadWriter
	nc       net.Conn // non-nil when conn supports deadlines/addrs
	isClient bool
	cfg      *Config

	// hsMu serializes handshake attempts; hsDone flips (with
	// release/acquire semantics) once the handshake has succeeded, and
	// hsErr pins the first fatal handshake error so later calls fail
	// fast instead of re-reading a desynchronized wire.
	hsMu   sync.Mutex
	hsDone atomic.Bool
	hsErr  error

	// writeMu guards the outbound half connection and the wire writes
	// through it (see writeRecords).
	writeMu sync.Mutex
	out     halfConn

	// readMu guards the inbound half connection, the record reader, the
	// reassembly buffers, and post-handshake wire reads. rfrags is the
	// fragment-list scratch Read uses to drain buffered records as one
	// OpenBatch call.
	readMu sync.Mutex
	in     halfConn
	rr     *recordReader
	rfrags [][]byte

	suite     *suite.Suite
	resumed   bool
	closed    atomic.Bool
	closeOnce sync.Once

	transcript   *sha1.Digest
	handshakeBuf []byte

	// readBuf holds decrypted-but-undelivered application data; readOff
	// is the delivery cursor into it, so draining a buffered batch does
	// not reslice away the buffer's reusable capacity.
	readBuf []byte
	readOff int

	sessionID []byte
	master    []byte
	prfHMAC   *hmac.HMAC // re-keyed by each PRF call; set only during Handshake

	// mmu guards metrics, which both directions update.
	mmu     sync.Mutex
	metrics Metrics

	// tparent is the distributed-trace span this connection's record
	// batches and handshake phases attach under (nil = untraced); trMu
	// guards the buffered phase log replayed once a parent is known
	// (see trace.go).
	tparent   atomic.Pointer[obs.DSpan]
	trMu      sync.Mutex
	hsPhases  []hsPhase
	trFlushed bool
}

// Conn must satisfy net.Conn so gateways can treat a secured session
// exactly like the TCP connection underneath it.
var _ net.Conn = (*Conn)(nil)

// Client wraps conn as the client side of a WTLS connection.
func Client(conn io.ReadWriter, cfg *Config) *Conn {
	nc, _ := conn.(net.Conn)
	return &Conn{conn: conn, nc: nc, isClient: true, cfg: cfg,
		transcript: sha1.New(), rr: newRecordReader(conn)}
}

// Server wraps conn as the server side of a WTLS connection.
func Server(conn io.ReadWriter, cfg *Config) *Conn {
	nc, _ := conn.(net.Conn)
	return &Conn{conn: conn, nc: nc, isClient: false, cfg: cfg,
		transcript: sha1.New(), rr: newRecordReader(conn)}
}

// pipeAddr is the placeholder address of a Conn over an in-memory pipe.
type pipeAddr struct{}

func (pipeAddr) Network() string { return "wtls" }
func (pipeAddr) String() string  { return "pipe" }

// LocalAddr returns the underlying transport's local address, or a
// placeholder for in-memory transports.
func (c *Conn) LocalAddr() net.Addr {
	if c.nc != nil {
		return c.nc.LocalAddr()
	}
	return pipeAddr{}
}

// RemoteAddr returns the underlying transport's remote address, or a
// placeholder for in-memory transports.
func (c *Conn) RemoteAddr() net.Addr {
	if c.nc != nil {
		return c.nc.RemoteAddr()
	}
	return pipeAddr{}
}

// SetDeadline sets both read and write deadlines on the underlying
// transport. Over a transport without deadline support it returns
// os.ErrNoDeadline, matching net.Conn conventions.
func (c *Conn) SetDeadline(t time.Time) error {
	if c.nc == nil {
		return os.ErrNoDeadline
	}
	return c.nc.SetDeadline(t)
}

// SetReadDeadline sets the read deadline on the underlying transport.
func (c *Conn) SetReadDeadline(t time.Time) error {
	if c.nc == nil {
		return os.ErrNoDeadline
	}
	return c.nc.SetReadDeadline(t)
}

// SetWriteDeadline sets the write deadline on the underlying transport.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	if c.nc == nil {
		return os.ErrNoDeadline
	}
	return c.nc.SetWriteDeadline(t)
}

// ConnectionState reports the negotiated parameters.
type ConnectionState struct {
	HandshakeDone bool
	Suite         *suite.Suite
	Resumed       bool
	SessionID     []byte
}

// State returns the connection state.
func (c *Conn) State() ConnectionState {
	c.hsMu.Lock()
	defer c.hsMu.Unlock()
	return ConnectionState{
		HandshakeDone: c.hsDone.Load(),
		Suite:         c.suite,
		Resumed:       c.resumed,
		SessionID:     append([]byte{}, c.sessionID...),
	}
}

// Metrics returns the accumulated cost metrics.
func (c *Conn) Metrics() Metrics {
	c.mmu.Lock()
	defer c.mmu.Unlock()
	return c.metrics
}

// writeRecords is the one outbound record path. Under the write lock it
// seals frags as consecutive records of one type with SealBatch, after
// the flight pending in the half connection's wire buffer. send writes
// that flight and these records in one transport write; otherwise they
// stay pending. A handshake sends each flight before it next reads.
// Application data and alerts always send, so an alert carries out what
// a failed flight held, and nothing follows it. A non-nil km arms the
// outbound keys inside the same hold, right after the ChangeCipherSpec
// that announces them, so the Finished sealed next uses them and a
// concurrent alert cannot slip between the two with stale keys.
func (c *Conn) writeRecords(recType uint8, frags [][]byte, km *keyMaterial, send bool) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	wire, err := c.out.SealBatch(recType, frags)
	if err != nil {
		return err
	}
	c.mmu.Lock()
	c.metrics.RecordsSent += len(frags)
	c.mmu.Unlock()
	if !send {
		c.out.wireBuf = wire
	} else if err := writeFull(c.conn, wire); err != nil {
		return err
	}
	if km == nil {
		return nil
	}
	return c.arm(&c.out, km, c.isClient)
}

// arm enables hc with the keys km derived for the client's or the
// server's writes.
func (c *Conn) arm(hc *halfConn, km *keyMaterial, clientWrites bool) error {
	if clientWrites {
		return hc.enable(c.suite, km.clientMAC, km.clientKey, km.clientIV)
	}
	return hc.enable(c.suite, km.serverMAC, km.serverKey, km.serverIV)
}

// sendAlert writes an alert record (best effort).
func (c *Conn) sendAlert(level, desc uint8) {
	_ = c.writeRecords(recordAlert, [][]byte{{level, desc}}, nil, true)
}

// fail sends a fatal alert and returns err wrapped with the alert's
// name, so the caller's error says what the peer was told.
func (c *Conn) fail(desc uint8, err error) error {
	c.sendAlert(alertLevelFatal, desc)
	return fmt.Errorf("wtls: sent %s alert: %w", alertName(desc), err)
}

// writeHandshake transcripts one handshake message and seals it as one
// record of the pending flight; send ends the flight and writes it.
func (c *Conn) writeHandshake(msg []byte, send bool) error {
	c.transcript.Write(msg)
	return c.writeRecords(recordHandshake, [][]byte{msg}, nil, send)
}

// recvRecord is the one inbound record path. It reads the next record;
// application data that Read wants comes back still sealed, for Read to
// open together with the run buffered behind it. Any other record is
// opened here as a batch of one and its outcome decided in one place:
//   - the wanted type returns its payload, valid until the next open;
//   - a bad MAC sends bad_record_mac;
//   - an alert returns *AlertError, or io.EOF for close_notify;
//   - a malformed alert or ChangeCipherSpec, or any other type, sends
//     unexpected_message.
func (c *Conn) recvRecord(want uint8) ([]byte, error) {
	recType, frag, err := c.rr.next()
	if err != nil {
		return nil, err
	}
	if recType == recordApplicationData && want == recordApplicationData {
		return frag, nil
	}
	c.mmu.Lock()
	c.metrics.RecordsRcv++
	c.mmu.Unlock()
	payload, err := c.in.OpenBatch(recType, [][]byte{frag})
	if err != nil {
		return nil, c.fail(AlertBadRecordMAC, err)
	}
	switch {
	case recType == want && (want != recordChangeCipherSpec || len(payload) == 1 && payload[0] == 1):
		return payload, nil
	case recType == recordAlert && len(payload) == 2:
		if payload[1] == AlertCloseNotify {
			c.closed.Store(true)
			return nil, io.EOF
		}
		return nil, &AlertError{Level: payload[0], Description: payload[1]}
	}
	return nil, c.fail(AlertUnexpectedMessage,
		fmt.Errorf("wtls: unexpected record type %d (%d bytes), want %d", recType, len(payload), want))
}

// readHandshakeMsg returns the next handshake message (type, body),
// reading records as needed and updating the transcript. More than
// maxEmptyRecords empty handshake records toward one message fail the
// handshake with AlertUnexpectedMessage, as Read bounds empty
// application records.
func (c *Conn) readHandshakeMsg() (uint8, []byte, error) {
	empty := 0
	for {
		if len(c.handshakeBuf) >= 4 {
			n := int(c.handshakeBuf[1])<<16 | int(c.handshakeBuf[2])<<8 | int(c.handshakeBuf[3])
			if n > maxHandshakeMsg {
				// Refuse before buffering toward an attacker-chosen
				// 16 MB reassembly target.
				return 0, nil, c.fail(AlertHandshakeFailed,
					fmt.Errorf("wtls: handshake message length %d exceeds %d", n, maxHandshakeMsg))
			}
			if len(c.handshakeBuf) >= 4+n {
				msg := c.handshakeBuf[:4+n]
				c.handshakeBuf = c.handshakeBuf[4+n:]
				c.transcript.Write(msg)
				return splitHandshake(msg)
			}
		}
		payload, err := c.recvRecord(recordHandshake)
		if err != nil {
			return 0, nil, err
		}
		if len(payload) == 0 {
			if empty++; empty > maxEmptyRecords {
				return 0, nil, c.fail(AlertUnexpectedMessage,
					fmt.Errorf("wtls: %d empty handshake records", empty))
			}
		}
		c.handshakeBuf = append(c.handshakeBuf, payload...)
	}
}

// expectHandshake reads a handshake message and checks its type.
func (c *Conn) expectHandshake(want uint8) ([]byte, error) {
	t, body, err := c.readHandshakeMsg()
	if err != nil {
		return nil, err
	}
	if t != want {
		return nil, c.fail(AlertHandshakeFailed,
			fmt.Errorf("wtls: expected handshake type %d, got %d", want, t))
	}
	return body, nil
}

// sendFinished ends this side's last flight: ChangeCipherSpec, arming
// the outbound keys, then this side's Finished over the transcript so
// far, sent in one write with whatever the flight already holds.
func (c *Conn) sendFinished(km *keyMaterial) error {
	if err := c.writeRecords(recordChangeCipherSpec, [][]byte{{1}}, km, false); err != nil {
		return err
	}
	fin := &finishedMsg{verify: finishedData(c.prfHMAC, c.master, c.isClient, c.transcriptHash())}
	return c.writeHandshake(fin.marshal(), true)
}

// recvFinished reads the peer's ChangeCipherSpec, arming the inbound
// keys, then checks the peer's Finished against the transcript before
// it.
func (c *Conn) recvFinished(km *keyMaterial) error {
	if _, err := c.recvRecord(recordChangeCipherSpec); err != nil {
		return err
	}
	if err := c.arm(&c.in, km, !c.isClient); err != nil {
		return err
	}
	want := finishedData(c.prfHMAC, c.master, !c.isClient, c.transcriptHash())
	body, err := c.expectHandshake(typeFinished)
	if err != nil {
		return err
	}
	fin, err := parseFinished(body)
	if err != nil {
		return c.fail(AlertHandshakeFailed, err)
	}
	if !hmac.Equal(fin.verify, want) {
		return c.fail(AlertHandshakeFailed, errors.New("wtls: finished verify data mismatch"))
	}
	return nil
}

// Handshake runs the protocol handshake. It is idempotent and safe for
// concurrent use: any number of goroutines calling Read, Write or
// Handshake trigger exactly one handshake, with the losers blocking
// until it settles. A fatal handshake error is sticky — the wire is
// desynchronized beyond repair, so later calls return the same error.
func (c *Conn) Handshake() error {
	if c.hsDone.Load() {
		return nil
	}
	c.hsMu.Lock()
	defer c.hsMu.Unlock()
	if c.hsDone.Load() {
		return nil
	}
	if c.hsErr != nil {
		return c.hsErr
	}
	if c.cfg == nil || c.cfg.Rand == nil {
		c.hsErr = errors.New("wtls: config with Rand required")
		return c.hsErr
	}
	var err error
	c.prfHMAC = newPRFMAC()
	if c.isClient {
		err = c.clientHandshake()
	} else {
		err = c.serverHandshake()
	}
	c.prfHMAC = nil // no PRF runs after the handshake
	c.phaseMark("")
	if p := c.tparent.Load(); p != nil {
		// Client role: the driver attached the parent before Handshake,
		// so the phase log replays here (failures included — a retried
		// attempt's partial handshake is critical-path evidence). The
		// server learns its parent later, from the wire.
		c.flushHandshakeTrace(p)
	}
	if err != nil {
		mHandshakeFailures.Inc()
		c.hsErr = err
		return err
	}
	kind := c.suite.KeyExchange
	c.mmu.Lock()
	if c.resumed {
		kind = cost.HandshakeResume
		c.metrics.ResumedHandshakes++
		mHandshakesResumed.Inc()
	} else {
		c.metrics.FullHandshakes++
		mHandshakesFull.Inc()
	}
	c.mmu.Unlock()
	instr, err := cost.HandshakeInstr(kind)
	if err != nil {
		c.hsErr = err
		return err
	}
	c.mmu.Lock()
	c.metrics.HandshakeInstr += instr
	c.mmu.Unlock()
	if prof.Enabled() {
		hsProfSpans[kind].AddCycles(int64(instr))
	}
	c.hsDone.Store(true)
	return nil
}

func (c *Conn) transcriptHash() []byte { return c.transcript.Sum(nil) }

func (c *Conn) clientHandshake() error {
	c.phaseMark("hello")
	clientRandom := c.cfg.Rand.Bytes(randomLen)
	var cached *session
	var offerID []byte
	if c.cfg.SessionCache != nil && c.cfg.ServerName != "" {
		if s := c.cfg.SessionCache.get("client:" + c.cfg.ServerName); s != nil {
			cached = s
			offerID = s.id
		}
	}
	hello := &clientHello{random: clientRandom, sessionID: offerID, suites: c.cfg.suitesOrDefault()}
	if err := c.writeHandshake(hello.marshal(), true); err != nil {
		return err
	}

	body, err := c.expectHandshake(typeServerHello)
	if err != nil {
		return err
	}
	sh, err := parseServerHello(body)
	if err != nil {
		return c.fail(AlertHandshakeFailed, err)
	}
	st, err := suite.ByID(sh.suite)
	if err != nil {
		return c.fail(AlertHandshakeFailed, err)
	}
	if !slices.Contains(hello.suites, sh.suite) {
		return c.fail(AlertHandshakeFailed, fmt.Errorf("wtls: server chose unoffered suite %#04x", sh.suite))
	}
	c.suite = st
	c.sessionID = sh.sessionID

	if sh.resumed {
		c.phaseMark("finished")
		if cached == nil || cached.suiteID != sh.suite || string(cached.id) != string(sh.sessionID) {
			return c.fail(AlertHandshakeFailed, errors.New("wtls: bogus resumption"))
		}
		c.resumed = true
		c.master = cached.master
		km := deriveKeys(c.prfHMAC, c.master, clientRandom, sh.random, st.MACKeyLen, st.KeyLen, st.IVLen)
		// Server finishes first on resumption.
		if err := c.recvFinished(&km); err != nil {
			return err
		}
		return c.sendFinished(&km)
	}

	// Full handshake: certificate (+ server key exchange for DHE).
	c.phaseMark("key_exchange")
	certBody, err := c.expectHandshake(typeCertificate)
	if err != nil {
		return err
	}
	cm, err := parseCertificateMsg(certBody)
	if err != nil {
		return c.fail(AlertBadCertificate, err)
	}
	cert, err := UnmarshalCertificate(cm.cert)
	if err != nil {
		return c.fail(AlertBadCertificate, err)
	}
	if c.cfg.RootCA == nil {
		return c.fail(AlertBadCertificate, errors.New("wtls: client has no root CA"))
	}
	if err := cert.Verify(c.cfg.RootCA, c.cfg.ServerName); err != nil {
		return c.fail(AlertBadCertificate, err)
	}

	var premaster []byte
	var ckx *clientKeyExchange
	switch st.KexName {
	case "RSA":
		body, err := c.expectHandshake(typeServerHelloDone)
		if err != nil {
			return err
		}
		if len(body) != 0 {
			return c.fail(AlertHandshakeFailed, errors.New("wtls: non-empty hello done"))
		}
		premaster = make([]byte, masterSecretLen)
		premaster[0] = byte(protocolVersion >> 8)
		premaster[1] = byte(protocolVersion & 0xff)
		copy(premaster[2:], c.cfg.Rand.Bytes(masterSecretLen-2))
		enc, err := rsa.EncryptPKCS1(c.cfg.Rand, cert.PublicKey, premaster)
		if err != nil {
			return c.fail(AlertHandshakeFailed, err)
		}
		ckx = &clientKeyExchange{payload: enc}
	case "DHE":
		skxBody, err := c.expectHandshake(typeServerKeyExchange)
		if err != nil {
			return err
		}
		skx, err := parseServerKeyExchange(skxBody)
		if err != nil {
			return c.fail(AlertHandshakeFailed, err)
		}
		params := skx.signedParams(clientRandom, sh.random)
		digest := sha1.Sum(params)
		if err := rsa.VerifyPKCS1(cert.PublicKey, "sha1", digest[:], skx.signature); err != nil {
			return c.fail(AlertHandshakeFailed, fmt.Errorf("wtls: DH params signature: %w", err))
		}
		body, err := c.expectHandshake(typeServerHelloDone)
		if err != nil {
			return err
		}
		if len(body) != 0 {
			return c.fail(AlertHandshakeFailed, errors.New("wtls: non-empty hello done"))
		}
		group := &dh.Group{Name: "negotiated", P: skx.p, G: skx.g}
		kp, err := dh.GenerateKeyPair(group, c.cfg.Rand, nil)
		if err != nil {
			return c.fail(AlertHandshakeFailed, err)
		}
		premaster, err = kp.SharedSecret(skx.ys, nil)
		if err != nil {
			return c.fail(AlertHandshakeFailed, err)
		}
		ckx = &clientKeyExchange{payload: kp.Public.Bytes()}
	default:
		return c.fail(AlertHandshakeFailed, fmt.Errorf("wtls: unsupported key exchange %q", st.KexName))
	}

	if err := c.writeHandshake(ckx.marshal(), false); err != nil {
		return err
	}
	c.phaseMark("finished")
	c.master = deriveMaster(c.prfHMAC, premaster, clientRandom, sh.random)
	km := deriveKeys(c.prfHMAC, c.master, clientRandom, sh.random, st.MACKeyLen, st.KeyLen, st.IVLen)

	if err := c.sendFinished(&km); err != nil {
		return err
	}
	if err := c.recvFinished(&km); err != nil {
		return err
	}
	if c.cfg.SessionCache != nil && c.cfg.ServerName != "" && len(c.sessionID) > 0 {
		c.cfg.SessionCache.put("client:"+c.cfg.ServerName, &session{
			id: c.sessionID, master: c.master, suiteID: st.ID,
		})
	}
	return nil
}

func (c *Conn) serverHandshake() error {
	c.phaseMark("hello")
	body, err := c.expectHandshake(typeClientHello)
	if err != nil {
		return err
	}
	ch, err := parseClientHello(body)
	if err != nil {
		return c.fail(AlertHandshakeFailed, err)
	}
	serverRandom := c.cfg.Rand.Bytes(randomLen)

	// Resumption path.
	if c.cfg.SessionCache != nil && len(ch.sessionID) > 0 {
		s := c.cfg.SessionCache.get("server:" + string(ch.sessionID))
		if s != nil && slices.Contains(ch.suites, s.suiteID) {
			return c.serverResume(ch, s, serverRandom)
		}
	}

	st, err := suite.Negotiate(ch.suites, c.cfg.suitesOrDefault())
	if err != nil {
		return c.fail(AlertHandshakeFailed, err)
	}
	if st.KexName == "DHE" && c.cfg.DHGroup == nil {
		// Fall back to the first non-DHE common suite.
		var fallback []uint16
		for _, id := range c.cfg.suitesOrDefault() {
			if s2, err := suite.ByID(id); err == nil && s2.KexName != "DHE" {
				fallback = append(fallback, id)
			}
		}
		if st, err = suite.Negotiate(ch.suites, fallback); err != nil {
			return c.fail(AlertHandshakeFailed, errors.New("wtls: DHE suite without DH group"))
		}
	}
	c.suite = st
	if c.cfg.Certificate == nil || c.cfg.PrivateKey == nil {
		return c.fail(AlertHandshakeFailed, errors.New("wtls: server requires certificate and key"))
	}

	c.sessionID = c.cfg.Rand.Bytes(16)
	sh := &serverHello{random: serverRandom, sessionID: c.sessionID, suite: st.ID}
	if err := c.writeHandshake(sh.marshal(), false); err != nil {
		return err
	}
	c.phaseMark("key_exchange")
	if err := c.writeHandshake((&certificateMsg{cert: c.cfg.Certificate.Marshal()}).marshal(), false); err != nil {
		return err
	}

	var dhKey *dh.KeyPair
	if st.KexName == "DHE" {
		dhKey, err = dh.GenerateKeyPair(c.cfg.DHGroup, c.cfg.Rand, nil)
		if err != nil {
			return c.fail(AlertHandshakeFailed, err)
		}
		skx := &serverKeyExchange{p: c.cfg.DHGroup.P, g: c.cfg.DHGroup.G, ys: dhKey.Public}
		digest := sha1.Sum(skx.signedParams(ch.random, serverRandom))
		sig, err := rsa.SignPKCS1(c.cfg.PrivateKey, "sha1", digest[:], c.cfg.RSAOptions)
		if err != nil {
			return c.fail(AlertHandshakeFailed, err)
		}
		skx.signature = sig
		if err := c.writeHandshake(skx.marshal(), false); err != nil {
			return err
		}
	}
	if err := c.writeHandshake(wrapHandshake(typeServerHelloDone, nil), true); err != nil {
		return err
	}

	ckxBody, err := c.expectHandshake(typeClientKeyExchange)
	if err != nil {
		return err
	}
	ckx, err := parseClientKeyExchange(ckxBody)
	if err != nil {
		return c.fail(AlertHandshakeFailed, err)
	}

	var premaster []byte
	switch st.KexName {
	case "RSA":
		pm, err := rsa.DecryptPKCS1(c.cfg.PrivateKey, ckx.payload, c.cfg.RSAOptions)
		if err != nil || len(pm) != masterSecretLen ||
			pm[0] != byte(protocolVersion>>8) || pm[1] != byte(protocolVersion&0xff) {
			return c.fail(AlertDecryptError, errors.New("wtls: bad premaster"))
		}
		premaster = pm
	case "DHE":
		yc := new(big.Int).SetBytes(ckx.payload)
		premaster, err = dhKey.SharedSecret(yc, nil)
		if err != nil {
			return c.fail(AlertHandshakeFailed, err)
		}
	}

	c.master = deriveMaster(c.prfHMAC, premaster, ch.random, serverRandom)
	km := deriveKeys(c.prfHMAC, c.master, ch.random, serverRandom, st.MACKeyLen, st.KeyLen, st.IVLen)

	c.phaseMark("finished")
	if err := c.recvFinished(&km); err != nil {
		return err
	}
	if err := c.sendFinished(&km); err != nil {
		return err
	}
	if c.cfg.SessionCache != nil {
		c.cfg.SessionCache.put("server:"+string(c.sessionID), &session{
			id: c.sessionID, master: c.master, suiteID: st.ID,
		})
	}
	return nil
}

func (c *Conn) serverResume(ch *clientHello, s *session, serverRandom []byte) error {
	c.phaseMark("finished")
	st, err := suite.ByID(s.suiteID)
	if err != nil {
		return c.fail(AlertHandshakeFailed, err)
	}
	c.suite = st
	c.resumed = true
	c.sessionID = s.id
	c.master = s.master
	sh := &serverHello{random: serverRandom, sessionID: s.id, suite: st.ID, resumed: true}
	if err := c.writeHandshake(sh.marshal(), false); err != nil {
		return err
	}
	km := deriveKeys(c.prfHMAC, c.master, ch.random, serverRandom, st.MACKeyLen, st.KeyLen, st.IVLen)
	if err := c.sendFinished(&km); err != nil {
		return err
	}
	return c.recvFinished(&km)
}

// Write sends application data, fragmenting into records as needed. A
// large payload is fragmented into one SealBatch call — sealed back to
// back into a single wire buffer and flushed with one transport write —
// so per-record overhead (HMAC staging, metric updates, syscalls) is
// amortized across the batch. Safe for concurrent use; concurrent
// writers interleave at batch granularity.
func (c *Conn) Write(p []byte) (int, error) {
	if err := c.Handshake(); err != nil {
		return 0, err
	}
	if c.closed.Load() {
		return 0, errors.New("wtls: connection closed")
	}
	var frags [maxRecordsPerBatch][]byte
	total := 0
	for len(p) > 0 {
		tsp := c.tparent.Load()
		var t0 int64
		if tsp != nil {
			t0 = obs.DTraceNowUS()
		}
		n, batchBytes := 0, 0
		for ; len(p) > 0 && n < maxRecordsPerBatch; n++ {
			m := min(len(p), maxRecordPayload)
			frags[n] = p[:m]
			batchBytes += m
			p = p[m:]
		}
		if err := c.writeRecords(recordApplicationData, frags[:n], nil, true); err != nil {
			return total, err
		}
		if tsp != nil {
			tsp.Event("wtls", "record_batch", t0, obs.DTraceNowUS()-t0, int64(batchBytes))
		}
		c.mmu.Lock()
		c.metrics.AppBytesOut += batchBytes
		c.metrics.BulkInstr += float64(batchBytes) * cost.BulkInstrPerByte(c.suite.Cipher, c.suite.MAC)
		c.mmu.Unlock()
		total += batchBytes
	}
	return total, nil
}

// Read returns application data, running the handshake if needed. When a
// burst of application records is already buffered (one transport read
// pulled in several), they are decrypted as one OpenBatch call with a
// single metrics update; the batch never waits for more wire data. More
// than maxEmptyRecords consecutive application records that yield no
// data fail the read with AlertUnexpectedMessage, and recvRecord decides
// every other record. Safe for concurrent use; concurrent readers are
// served one at a time.
func (c *Conn) Read(p []byte) (int, error) {
	if err := c.Handshake(); err != nil {
		return 0, err
	}
	c.readMu.Lock()
	defer c.readMu.Unlock()
	empty := 0
	for c.readOff == len(c.readBuf) {
		c.readBuf = c.readBuf[:0]
		c.readOff = 0
		if c.closed.Load() {
			return 0, io.EOF
		}
		frag, err := c.recvRecord(recordApplicationData)
		if err != nil {
			return 0, err
		}
		// Collect consecutive already-buffered application records.
		// peek never refills the reader, so frag and its successors
		// stay alias-stable across the collection loop.
		frags := append(c.rfrags[:0], frag)
		for len(frags) < maxRecordsPerBatch {
			t, ok := c.rr.peek()
			if !ok || t != recordApplicationData {
				break
			}
			if _, f, err := c.rr.next(); err == nil {
				frags = append(frags, f)
			}
		}
		c.rfrags = frags
		payload, err := c.in.OpenBatch(recordApplicationData, frags)
		if err != nil {
			return 0, c.fail(AlertBadRecordMAC, err)
		}
		if len(payload) == 0 {
			if empty += len(frags); empty > maxEmptyRecords {
				return 0, c.fail(AlertUnexpectedMessage,
					fmt.Errorf("wtls: %d consecutive empty application records", empty))
			}
		}
		c.readBuf = append(c.readBuf, payload...)
		c.mmu.Lock()
		c.metrics.RecordsRcv += len(frags)
		c.metrics.AppBytesIn += len(payload)
		c.metrics.BulkInstr += float64(len(payload)) * cost.BulkInstrPerByte(c.suite.Cipher, c.suite.MAC)
		c.mmu.Unlock()
	}
	n := copy(p, c.readBuf[c.readOff:])
	c.readOff += n
	if c.readOff == len(c.readBuf) {
		c.readBuf = c.readBuf[:0]
		c.readOff = 0
	}
	return n, nil
}

// Close sends a close_notify alert (when a handshake completed and the
// peer has not already closed first) and closes the underlying
// transport if it is closable. Idempotent and safe to call concurrently
// with Read and Write: a blocked Read on a real socket is unblocked by
// the transport close.
func (c *Conn) Close() error {
	var err error
	c.closeOnce.Do(func() {
		if c.closed.CompareAndSwap(false, true) && c.hsDone.Load() {
			c.sendAlert(alertLevelWarning, AlertCloseNotify)
		}
		if cl, ok := c.conn.(io.Closer); ok {
			err = cl.Close()
		}
	})
	return err
}
