// Package esp implements an IPSec-ESP-style network-layer protection
// scheme from scratch: per-SA sequence numbers, CBC encryption with a
// negotiated block cipher, a truncated-HMAC integrity value and an
// anti-replay window.
//
// It is the "network or IP layer (IPSec)" rung of the paper's protocol
// ladder (Section 2): the layer a VPN-connected wireless PDA must run in
// addition to WEP below it and SSL above it (Section 3.1's tri-layer
// example), and the workload the Safenet-style protocol engines of
// Section 4.2.3 accelerate.
package esp

import (
	"errors"
	"fmt"
	"hash"
	"io"

	"repro/internal/cost"
	"repro/internal/crypto/hmac"
	"repro/internal/crypto/modes"
	"repro/internal/obs"
	"repro/internal/obs/journal"
	"repro/internal/obs/prof"
)

// Static per-packet metric handles; disarmed by default.
var (
	mPacketsSealed = obs.C("esp.packets_sealed")
	mPacketsOpened = obs.C("esp.packets_opened")
	mSealBytes     = obs.C("esp.seal_bytes")
	mOpenBytes     = obs.C("esp.open_bytes")
	mAuthFailures  = obs.C("esp.auth_failures")
	mReplaysSeen   = obs.C("esp.replays_dropped")
)

// ICVLen is the truncated HMAC length (96 bits, as in HMAC-SHA1-96).
const ICVLen = 12

// Errors returned by Open.
var (
	ErrAuth     = errors.New("esp: authentication failed")
	ErrReplay   = errors.New("esp: replayed or stale sequence number")
	ErrTooShort = errors.New("esp: packet too short")
	ErrWrongSPI = errors.New("esp: packet for a different SPI")
)

// windowSize is the anti-replay window width.
const windowSize = 64

// SA is one direction of a security association.
type SA struct {
	SPI    uint32
	block  modes.Block
	cbc    *modes.CBCCrypter // CBC scratch, owned by the SA
	newMAC func() hash.Hash
	macKey []byte
	rng    io.Reader

	sendSeq uint32

	// receive-side anti-replay state
	highestSeq uint32
	window     uint64

	// lifetime limits (0 = unlimited); when exceeded the SA refuses
	// further traffic and must be rekeyed, as IPSec SAs do.
	byteLifetime   int
	packetLifetime uint32
	bytesSealed    int

	// mac is the keyed HMAC instance, built once and Reset per packet;
	// icvBuf is its digest scratch.
	mac    hash.Hash
	icvBuf []byte

	// Cached energy/cycle profile frames and per-byte costs, set by
	// SetCostModel; zero Spans (no-ops) until then.
	pCipher     prof.Span
	pMAC        prof.Span
	cipherCost  float64
	macInstCost float64
}

// SetCostModel names the SA's cipher and MAC in the calibrated cost
// tables, enabling per-packet cycle attribution in the energy/cycle
// profiler (frames esp.Protect/<cipher>/cbc and esp.Protect/<mac>).
// Without it the SA still works but contributes no profile frames.
func (sa *SA) SetCostModel(cipher, mac cost.Algorithm) {
	sa.pCipher = prof.Frame("esp.Protect/" + string(cipher) + "/cbc")
	sa.pMAC = prof.Frame("esp.Protect/" + string(mac))
	sa.cipherCost = cost.InstrPerByte(cipher)
	sa.macInstCost = cost.InstrPerByte(mac)
}

// ErrLifetimeExceeded reports an SA past its negotiated lifetime.
var ErrLifetimeExceeded = errors.New("esp: SA lifetime exceeded; rekey required")

// SetLifetime bounds the SA to maxBytes of payload and maxPackets
// packets (either may be 0 for unlimited).
func (sa *SA) SetLifetime(maxBytes int, maxPackets uint32) {
	sa.byteLifetime = maxBytes
	sa.packetLifetime = maxPackets
}

// LifetimeExhausted reports whether the SA must be rekeyed.
func (sa *SA) LifetimeExhausted() bool {
	if sa.byteLifetime > 0 && sa.bytesSealed >= sa.byteLifetime {
		return true
	}
	if sa.packetLifetime > 0 && sa.sendSeq >= sa.packetLifetime {
		return true
	}
	return false
}

// NewSA creates a security association. block encrypts the payload in CBC
// mode with random IVs from rng; newMAC+macKey authenticate the packet.
func NewSA(spi uint32, block modes.Block, newMAC func() hash.Hash, macKey []byte, rng io.Reader) (*SA, error) {
	if block == nil || newMAC == nil || rng == nil {
		return nil, errors.New("esp: nil cipher, MAC or rng")
	}
	if len(macKey) == 0 {
		return nil, errors.New("esp: empty MAC key")
	}
	sa := &SA{SPI: spi, block: block, cbc: modes.NewCBCCrypter(block), newMAC: newMAC, macKey: append([]byte{}, macKey...), rng: rng}
	sa.mac = hmac.New(newMAC, sa.macKey)
	sa.icvBuf = make([]byte, 0, sa.mac.Size())
	return sa, nil
}

// icv computes the truncated HMAC into the SA's scratch; the result is
// valid until the next icv call.
func (sa *SA) icv(data []byte) []byte {
	sa.mac.Reset()
	sa.mac.Write(data)
	return sa.mac.Sum(sa.icvBuf[:0])[:ICVLen]
}

// Seal protects a payload into a packet:
//
//	SPI(4) || seq(4) || IV(bs) || CBC(payload padded) || ICV(12)
//
// The ICV covers everything before it.
func (sa *SA) Seal(payload []byte) ([]byte, error) {
	if sa.LifetimeExhausted() {
		return nil, ErrLifetimeExceeded
	}
	sa.sendSeq++
	if sa.sendSeq == 0 {
		return nil, errors.New("esp: sequence number exhausted; rekey required")
	}
	sa.bytesSealed += len(payload)
	bs := sa.block.BlockSize()
	// Build the whole packet in one allocation: the IV is drawn directly
	// into its slot, the payload is padded in place and encrypted in
	// place, and the ICV is written from the cached HMAC's scratch.
	padLen := bs - len(payload)%bs
	total := 8 + bs + len(payload) + padLen + ICVLen
	pkt := make([]byte, total)
	pkt[0], pkt[1], pkt[2], pkt[3] = byte(sa.SPI>>24), byte(sa.SPI>>16), byte(sa.SPI>>8), byte(sa.SPI)
	pkt[4], pkt[5], pkt[6], pkt[7] = byte(sa.sendSeq>>24), byte(sa.sendSeq>>16), byte(sa.sendSeq>>8), byte(sa.sendSeq)
	iv := pkt[8 : 8+bs]
	if _, err := io.ReadFull(sa.rng, iv); err != nil {
		return nil, fmt.Errorf("esp: drawing IV: %w", err)
	}
	body := pkt[8+bs : total-ICVLen]
	copy(body, payload)
	for i := len(payload); i < len(body); i++ {
		body[i] = byte(padLen)
	}
	if err := sa.cbc.EncryptInto(iv, body, body); err != nil {
		return nil, err
	}
	copy(pkt[total-ICVLen:], sa.icv(pkt[:total-ICVLen]))
	mPacketsSealed.Inc()
	mSealBytes.Add(int64(len(payload)))
	if prof.Enabled() {
		sa.pCipher.AddCycles(int64(sa.cipherCost * float64(len(body))))
		sa.pMAC.AddCycles(int64(sa.macInstCost * float64(total-ICVLen)))
	}
	return pkt, nil
}

// Open verifies, replay-checks and decrypts a packet.
func (sa *SA) Open(pkt []byte) ([]byte, error) {
	bs := sa.block.BlockSize()
	if len(pkt) < 8+bs+ICVLen {
		return nil, ErrTooShort
	}
	spi := uint32(pkt[0])<<24 | uint32(pkt[1])<<16 | uint32(pkt[2])<<8 | uint32(pkt[3])
	if spi != sa.SPI {
		return nil, ErrWrongSPI
	}
	seq := uint32(pkt[4])<<24 | uint32(pkt[5])<<16 | uint32(pkt[6])<<8 | uint32(pkt[7])

	body, icv := pkt[:len(pkt)-ICVLen], pkt[len(pkt)-ICVLen:]
	if !hmac.Equal(icv, sa.icv(body)) {
		mAuthFailures.Inc()
		journal.Emit(int64(seq), journal.LevelWarn, "esp", "auth_failure",
			journal.I("seq", int64(seq)), journal.I("packet_bytes", int64(len(pkt))))
		return nil, ErrAuth
	}
	if err := sa.checkReplay(seq); err != nil {
		mReplaysSeen.Inc()
		journal.Emit(int64(seq), journal.LevelWarn, "esp", "replay",
			journal.I("seq", int64(seq)))
		return nil, err
	}
	iv := body[8 : 8+bs]
	ct := body[8+bs:]
	pt := make([]byte, len(ct))
	if err := sa.cbc.DecryptInto(iv, ct, pt); err != nil {
		return nil, err
	}
	payload, err := modes.Unpad(pt, bs)
	if err != nil {
		return nil, err
	}
	sa.markSeen(seq)
	mPacketsOpened.Inc()
	mOpenBytes.Add(int64(len(payload)))
	if prof.Enabled() {
		sa.pCipher.AddCycles(int64(sa.cipherCost * float64(len(ct))))
		sa.pMAC.AddCycles(int64(sa.macInstCost * float64(len(body))))
	}
	return payload, nil
}

// checkReplay implements the RFC 2401-style sliding window.
func (sa *SA) checkReplay(seq uint32) error {
	if seq == 0 {
		return ErrReplay
	}
	switch {
	case seq > sa.highestSeq:
		return nil
	case sa.highestSeq-seq >= windowSize:
		return ErrReplay
	default:
		if sa.window&(1<<(sa.highestSeq-seq)) != 0 {
			return ErrReplay
		}
		return nil
	}
}

func (sa *SA) markSeen(seq uint32) {
	if seq > sa.highestSeq {
		shift := seq - sa.highestSeq
		if shift >= windowSize {
			sa.window = 0
		} else {
			sa.window <<= shift
		}
		sa.window |= 1
		sa.highestSeq = seq
	} else {
		sa.window |= 1 << (sa.highestSeq - seq)
	}
}

// SendSeq reports the last sent sequence number.
func (sa *SA) SendSeq() uint32 { return sa.sendSeq }
