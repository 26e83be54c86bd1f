package wtls

import (
	"errors"
	"fmt"
	"hash"
	"io"

	"repro/internal/cost"
	"repro/internal/crypto/hmac"
	"repro/internal/crypto/modes"
	"repro/internal/obs"
	"repro/internal/obs/prof"
	"repro/internal/suite"
)

// Static per-record metric handles; no-ops until a cmd arms the
// default registry with -metrics.
var (
	mRecordsSealed = obs.C("wtls.records_sealed")
	mRecordsOpened = obs.C("wtls.records_opened")
	mSealBytes     = obs.C("wtls.seal_bytes")
	mOpenBytes     = obs.C("wtls.open_bytes")
	mMACFailures   = obs.C("wtls.mac_failures")
	mRecordSizes   = obs.H("wtls.record_bytes", obs.SizeBuckets)
)

// Record content types.
const (
	recordChangeCipherSpec uint8 = 20
	recordAlert            uint8 = 21
	recordHandshake        uint8 = 22
	recordApplicationData  uint8 = 23
)

// recordHeaderLen is the framed record header: type, version, length.
const recordHeaderLen = 5

// maxRecordPayload bounds a single record's plaintext.
const maxRecordPayload = 16384

// maxRecordFragment is the hard cap on one sealed fragment, in both
// directions: plaintext plus MAC plus block padding. The record reader
// refuses to buffer past it, so a hostile length field cannot consume
// unbounded memory on a 32 MB appliance.
const maxRecordFragment = maxRecordPayload + 1024

// maxRecordsPerBatch bounds one SealBatch/OpenBatch call, and with it the
// wire and open scratch a connection can pin (~8 full records per
// direction).
const maxRecordsPerBatch = 8

// maxHandshakeMsg bounds one handshake message body. The 24-bit wire
// length reaches 16 MB; every legitimate message in this protocol
// (hellos, compact WTLS certificates, key exchanges) is far under 64 KB,
// so anything larger is treated as an attack on the reassembly buffer
// and rejected before any record is buffered toward it.
const maxHandshakeMsg = 1 << 16

// maxEmptyRecords bounds the consecutive application records that one
// Read may open without yielding a byte (crypto/tls uses the same bound).
// Without it a peer streaming valid zero-length records pins the reader
// and burns MAC and cipher work indefinitely.
const maxEmptyRecords = 16

// Alert levels and descriptions (the subset this stack emits).
const (
	alertLevelWarning uint8 = 1
	alertLevelFatal   uint8 = 2

	AlertCloseNotify       uint8 = 0
	AlertUnexpectedMessage uint8 = 10
	AlertBadRecordMAC      uint8 = 20
	AlertHandshakeFailed   uint8 = 40
	AlertBadCertificate    uint8 = 42
	AlertDecryptError      uint8 = 51
)

// AlertError is a fatal alert received from the peer.
type AlertError struct {
	Level, Description uint8
}

func (e *AlertError) Error() string {
	return fmt.Sprintf("wtls: received %s alert (level %d)", alertName(e.Description), e.Level)
}

// alertNames spells the alert descriptions this stack knows.
var alertNames = map[uint8]string{
	AlertCloseNotify: "close_notify", AlertUnexpectedMessage: "unexpected_message",
	AlertBadRecordMAC: "bad_record_mac", AlertHandshakeFailed: "handshake_failure",
	AlertBadCertificate: "bad_certificate", AlertDecryptError: "decrypt_error",
}

// alertName names an alert description for error messages.
func alertName(desc uint8) string {
	if n, ok := alertNames[desc]; ok {
		return n
	}
	return fmt.Sprintf("unknown(%d)", desc)
}

// errBadRecordMAC rejects a record whose MAC or CBC padding is wrong; the
// two causes are deliberately indistinguishable.
var errBadRecordMAC = errors.New("wtls: bad record MAC")

// halfConn is one direction of record protection.
type halfConn struct {
	seq     uint64
	suite   *suite.Suite
	macKey  []byte
	block   modes.Block       // block suites
	cbc     *modes.CBCCrypter // reusable CBC scratch for block suites
	cbcIV   []byte            // running CBC residue (SSL 3.0/TLS 1.0 chaining)
	stream  suite.Stream      // stream suites
	enabled bool
	macLen  int // cached hc.hmac.Size(): Suite.MACLen constructs a hash per call

	// Per-record scratch, armed by enable: the keyed HMAC is built once
	// and Reset between records, and all seal/open work happens in
	// reusable buffers instead of fresh allocations per record. macHdr
	// stages the 11-byte MAC header on the heap once — an on-stack array
	// would escape through the hash.Hash interface on every record.
	hmac    hash.Hash
	macBuf  []byte
	macHdr  []byte
	wireBuf []byte // seal side: framed records [hdr|fragment]...; any length is a pending flight
	openBuf []byte // open side: decrypted plaintext payloads

	// Cached energy/cycle profile frames for the suite's kernels (set by
	// enable, so the tree walk is off the per-record path).
	pCipher prof.Span
	pMAC    prof.Span
}

// enable arms the half connection with negotiated keys.
func (hc *halfConn) enable(s *suite.Suite, macKey, key, iv []byte) error {
	hc.suite = s
	hc.macKey = append([]byte{}, macKey...)
	switch s.Kind {
	case suite.BlockCipher:
		b, err := s.NewBlock(key)
		if err != nil {
			return err
		}
		hc.block = b
		hc.cbc = modes.NewCBCCrypter(b)
		hc.cbcIV = append([]byte{}, iv...)
	case suite.StreamCipher:
		st, err := s.NewStream(key)
		if err != nil {
			return err
		}
		hc.stream = st
	default:
		return errors.New("wtls: suite kind unsupported by record layer")
	}
	hc.hmac = hmac.New(s.NewHash, hc.macKey)
	hc.macLen = hc.hmac.Size()
	hc.macBuf = make([]byte, 0, hc.macLen)
	hc.macHdr = make([]byte, 11)
	hc.pCipher = prof.Frame("wtls.Record/" + string(s.Cipher))
	hc.pMAC = prof.Frame("wtls.Record/" + string(s.MAC))
	hc.seq = 0
	hc.enabled = true
	return nil
}

// mac computes the record MAC over seq || type || length || payload into
// the half connection's MAC scratch; the result is valid until the next
// mac call.
func (hc *halfConn) mac(recType uint8, payload []byte) []byte {
	h := hc.hmac
	h.Reset()
	hdr := hc.macHdr
	for i := 0; i < 8; i++ {
		hdr[i] = byte(hc.seq >> uint(56-8*i))
	}
	hdr[8] = recType
	hdr[9] = byte(len(payload) >> 8)
	hdr[10] = byte(len(payload))
	h.Write(hdr)
	h.Write(payload)
	return h.Sum(hc.macBuf[:0])
}

// appendHeader appends a 5-byte record header framing a fragment of
// fragLen bytes.
func appendHeader(dst []byte, recType uint8, fragLen int) []byte {
	return append(dst, recType, byte(protocolVersion>>8), byte(protocolVersion&0xff),
		byte(fragLen>>8), byte(fragLen))
}

// appendZeros extends dst by n writable bytes (contents unspecified —
// every caller overwrites the whole extension). Allocation-free once the
// buffer has warmed to its working size.
func appendZeros(dst []byte, n int) []byte {
	if cap(dst)-len(dst) >= n {
		return dst[:len(dst)+n]
	}
	return append(dst, make([]byte, n)...)
}

// appendRecord seals payload as one record — 5-byte header plus protected
// fragment — appended to dst, returning the extended slice. Sequence
// number, MAC and cipher state advance; metrics are the caller's so batch
// callers can amortize them to one update per batch.
func (hc *halfConn) appendRecord(dst []byte, recType uint8, payload []byte) ([]byte, error) {
	if len(payload) > maxRecordPayload {
		return dst, errors.New("wtls: oversized record")
	}
	if !hc.enabled {
		dst = appendHeader(dst, recType, len(payload))
		return append(dst, payload...), nil
	}
	mac := hc.mac(recType, payload)
	hc.seq++
	n := len(payload) + len(mac)
	fragLen := n
	if hc.suite.Kind == suite.BlockCipher {
		bs := hc.suite.BlockSize
		fragLen = n + bs - n%bs
	}
	dst = appendHeader(dst, recType, fragLen)
	base := len(dst)
	dst = appendZeros(dst, fragLen)
	data := dst[base:]
	copy(data, payload)
	copy(data[len(payload):], mac)
	switch hc.suite.Kind {
	case suite.BlockCipher:
		padLen := fragLen - n
		for i := n; i < fragLen; i++ {
			data[i] = byte(padLen)
		}
		if err := hc.cbc.EncryptInto(hc.cbcIV, data, data); err != nil {
			return dst[:base-recordHeaderLen], err
		}
		copy(hc.cbcIV, data[fragLen-hc.suite.BlockSize:])
	case suite.StreamCipher:
		hc.stream.XORKeyStream(data, data)
	default:
		return dst[:base-recordHeaderLen], errors.New("wtls: unreachable suite kind")
	}
	return dst, nil
}

// observe adds one batch's records and payload bytes to the seal or
// open counters given, and its cipher and MAC profile weights. Only
// called while enabled (hc.suite set).
func (hc *halfConn) observe(records, bytes *obs.Counter, n, payloadBytes int) {
	records.Add(int64(n))
	bytes.Add(int64(payloadBytes))
	if prof.Enabled() {
		hc.pCipher.AddCycles(int64(cost.InstrPerByte(hc.suite.Cipher) * float64(payloadBytes)))
		hc.pMAC.AddCycles(int64(cost.InstrPerByte(hc.suite.MAC) * float64(payloadBytes)))
	}
}

// SealBatch seals payloads as consecutive records into one wire buffer,
// amortizing HMAC state, CBC IV chaining and metric updates across the
// batch. The records follow any pending in wireBuf (a handshake flight
// still being built, see Conn.writeRecords); the returned slice holds
// those and the new records, ready to write, and nothing stays pending.
// It aliases the half connection's scratch — valid until the next seal.
// A failed seal drops the pending records too.
func (hc *halfConn) SealBatch(recType uint8, payloads [][]byte) ([]byte, error) {
	out := hc.wireBuf
	total := 0
	var err error
	for _, p := range payloads {
		if out, err = hc.appendRecord(out, recType, p); err != nil {
			hc.wireBuf = out[:0]
			return nil, err
		}
		total += len(p)
		if hc.enabled {
			mRecordSizes.Observe(int64(len(p)))
		}
	}
	hc.wireBuf = out[:0]
	if hc.enabled {
		hc.observe(mRecordsSealed, mSealBytes, len(payloads), total)
	}
	return out, nil
}

// openAppend opens one sealed fragment, appending the recovered plaintext
// to dst. It returns the payload (aliasing the extension) and the
// extended slice. Metrics are the caller's.
func (hc *halfConn) openAppend(dst []byte, recType uint8, sealed []byte) ([]byte, []byte, error) {
	base := len(dst)
	if !hc.enabled {
		dst = append(dst, sealed...)
		return dst[base:], dst, nil
	}
	dst = appendZeros(dst, len(sealed))
	data := dst[base:]
	badPad := false
	switch hc.suite.Kind {
	case suite.BlockCipher:
		if err := hc.cbc.DecryptInto(hc.cbcIV, sealed, data); err != nil {
			return nil, dst[:base], err
		}
		if len(sealed) >= hc.suite.BlockSize {
			copy(hc.cbcIV, sealed[len(sealed)-hc.suite.BlockSize:])
		}
		// A bad pad must cost what a bad MAC costs, or the time to reject
		// a record tells an attacker whether its padding was valid
		// (Vaudenay's CBC padding oracle). So the MAC is still computed,
		// over the record as if it had no padding, and the failure is
		// reported as a MAC failure. A pad that leaves no room for the
		// MAC counts as bad: only the public record length may decide
		// the "shorter than MAC" error below.
		if unpadded, err := modes.Unpad(data, hc.suite.BlockSize); err == nil && len(unpadded) >= hc.macLen {
			data = unpadded
		} else {
			badPad = true
		}
	case suite.StreamCipher:
		hc.stream.XORKeyStream(data, sealed)
	default:
		return nil, dst[:base], errors.New("wtls: unreachable suite kind")
	}
	if len(data) < hc.macLen {
		return nil, dst[:base], errors.New("wtls: record shorter than MAC")
	}
	payload, gotMAC := data[:len(data)-hc.macLen], data[len(data)-hc.macLen:]
	want := hc.mac(recType, payload)
	hc.seq++
	if !hmac.Equal(gotMAC, want) || badPad {
		mMACFailures.Inc()
		return nil, dst[:base], errBadRecordMAC
	}
	return payload, dst[:base+len(payload)], nil
}

// OpenBatch opens sealed fragments as consecutive records, returning the
// concatenated plaintext. The result aliases the half connection's
// scratch — valid until the next open. Any failure poisons the whole
// batch: record protection errors are fatal to the connection anyway.
func (hc *halfConn) OpenBatch(recType uint8, frags [][]byte) ([]byte, error) {
	out := hc.openBuf[:0]
	total := 0
	for _, f := range frags {
		payload, next, err := hc.openAppend(out, recType, f)
		if err != nil {
			hc.openBuf = out[:0]
			return nil, err
		}
		out = next
		total += len(payload)
	}
	hc.openBuf = out[:0]
	if hc.enabled {
		hc.observe(mRecordsOpened, mOpenBytes, len(frags), total)
	}
	return out, nil
}

// writeFull writes all of p, looping on short writes: real sockets (and
// deliberately chunking test writers) can short-write, and a torn record
// desynchronizes the peer forever. A writer that makes no progress
// without reporting an error is broken; surface it as io.ErrShortWrite
// instead of spinning.
func writeFull(w io.Writer, p []byte) error {
	for len(p) > 0 {
		n, err := w.Write(p)
		if err != nil {
			return err
		}
		if n <= 0 {
			return io.ErrShortWrite
		}
		p = p[n:]
	}
	return nil
}

// minReadBuf is the initial record-reader buffer: large enough that a
// burst of small records arrives in one transport read and can be opened
// as one batch.
const minReadBuf = 8 << 10

// recordReader buffers the inbound byte stream and parses records out of
// it without per-record allocation. Fragments returned by next alias the
// internal buffer and stay valid until a call that refills it — peek
// reports whether another complete record is already buffered, which is
// the alias-stability guarantee batch readers rely on.
type recordReader struct {
	r        io.Reader
	buf      []byte
	pos, end int
}

func newRecordReader(r io.Reader) *recordReader {
	return &recordReader{r: r}
}

// buffered reports the bytes already read from the transport but not yet
// consumed as records.
func (rr *recordReader) buffered() int { return rr.end - rr.pos }

// require ensures at least n unconsumed bytes are buffered, compacting
// and growing as needed (growth is capped by the record-size checks in
// next: n never exceeds one framed maximum record). On a transport error
// the buffered prefix is preserved, so a timed-out read can be retried.
func (rr *recordReader) require(n int) error {
	if rr.end-rr.pos >= n {
		return nil
	}
	if rr.pos > 0 {
		copy(rr.buf, rr.buf[rr.pos:rr.end])
		rr.end -= rr.pos
		rr.pos = 0
	}
	if cap(rr.buf) < n {
		newCap := 2 * cap(rr.buf)
		if newCap < minReadBuf {
			newCap = minReadBuf
		}
		if newCap < n {
			newCap = n
		}
		nb := make([]byte, newCap)
		copy(nb, rr.buf[:rr.end])
		rr.buf = nb
	}
	rr.buf = rr.buf[:cap(rr.buf)]
	for rr.end-rr.pos < n {
		m, err := rr.r.Read(rr.buf[rr.end:])
		if m > 0 {
			rr.end += m
			continue
		}
		if err == nil {
			return io.ErrNoProgress
		}
		if err == io.EOF && rr.end > rr.pos {
			return io.ErrUnexpectedEOF
		}
		return err
	}
	return nil
}

// header parses the buffered record header at pos, returning the record
// type and fragment length. The caller ensures the header is buffered.
func (rr *recordReader) header() (uint8, int, error) {
	hdr := rr.buf[rr.pos : rr.pos+recordHeaderLen]
	if ver := uint16(hdr[1])<<8 | uint16(hdr[2]); ver != protocolVersion {
		return 0, 0, fmt.Errorf("wtls: record version %#04x", ver)
	}
	n := int(hdr[3])<<8 | int(hdr[4])
	if n > maxRecordFragment {
		return 0, 0, errors.New("wtls: oversized record")
	}
	return hdr[0], n, nil
}

// next reads one record, returning its type and fragment. The fragment
// aliases the internal buffer: it is valid until a next call that has to
// refill (peek-guarded batch reads never do).
func (rr *recordReader) next() (uint8, []byte, error) {
	if err := rr.require(recordHeaderLen); err != nil {
		return 0, nil, err
	}
	recType, n, err := rr.header()
	if err != nil {
		return 0, nil, err
	}
	if err := rr.require(recordHeaderLen + n); err != nil {
		return 0, nil, err
	}
	frag := rr.buf[rr.pos+recordHeaderLen : rr.pos+recordHeaderLen+n]
	rr.pos += recordHeaderLen + n
	return recType, frag, nil
}

// peek reports the type of the next record if one is completely buffered.
// It never reads from the transport, so fragments handed out by next stay
// valid across it. A buffered-but-malformed header reports false and is
// left for next to surface as an error.
func (rr *recordReader) peek() (uint8, bool) {
	if rr.buffered() < recordHeaderLen {
		return 0, false
	}
	recType, n, err := rr.header()
	if err != nil || rr.buffered() < recordHeaderLen+n {
		return 0, false
	}
	return recType, true
}
