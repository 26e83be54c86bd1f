// Package wep implements a WEP-style 802.11 link-layer protection scheme
// from scratch: RC4 keyed with IV||secret and a CRC-32 integrity check
// value, faithful to the design whose flaws the paper catalogs (Section 2,
// refs [21-23]: "Unsafe at any key size", Borisov/Goldberg/Wagner,
// Arbaugh).
//
// The known weaknesses are reproduced deliberately — keystream reuse under
// IV collision, ICV linearity, and the FMS weak-IV key schedule leak — so
// that internal/attack/wepattack can demonstrate each one, paired with the
// mitigations (IV discipline, rekeying) that only partially help.
package wep

import (
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/cost"
	"repro/internal/crypto/rc4"
	"repro/internal/obs"
	"repro/internal/obs/journal"
	"repro/internal/obs/prof"
)

// Static per-frame metric handles; disarmed by default.
var (
	mFramesSealed = obs.C("wep.frames_sealed")
	mFramesOpened = obs.C("wep.frames_opened")
	mSealBytes    = obs.C("wep.seal_bytes")
	mOpenBytes    = obs.C("wep.open_bytes")
	mICVFailures  = obs.C("wep.icv_failures")
	mWeakIVs      = obs.C("wep.weak_ivs_sealed")
)

// Static energy/cycle profile frames, weighted with the calibrated
// per-byte kernel costs; disarmed by default.
var (
	pSealRC4 = prof.Frame("wep.Seal/rc4")
	pSealCRC = prof.Frame("wep.Seal/crc32")
	pOpenRC4 = prof.Frame("wep.Open/rc4")
	pOpenCRC = prof.Frame("wep.Open/crc32")
)

// IV length in bytes (24 bits, as in 802.11).
const IVLen = 3

// ICVLen is the CRC-32 integrity check value length.
const ICVLen = 4

// Key lengths: WEP-40 ("64-bit") and WEP-104 ("128-bit").
const (
	Key40Len  = 5
	Key104Len = 13
)

// Errors returned by Open.
var (
	ErrBadICV   = errors.New("wep: integrity check value mismatch")
	ErrTooShort = errors.New("wep: frame too short")
)

// IVPolicy selects how the endpoint generates IVs.
type IVPolicy int

// IV policies.
const (
	// IVSequential counts up from zero — the common hardware behaviour
	// that guarantees collisions across resets.
	IVSequential IVPolicy = iota
	// IVConstant reuses one IV forever (a pathological but shipped
	// behaviour; makes keystream reuse immediate).
	IVConstant
)

// Endpoint seals and opens WEP frames under a shared secret key.
type Endpoint struct {
	key    []byte
	policy IVPolicy
	nextIV uint32
}

// NewEndpoint creates a WEP endpoint with the shared secret (5 or 13
// bytes) and IV policy.
func NewEndpoint(key []byte, policy IVPolicy) (*Endpoint, error) {
	if len(key) != Key40Len && len(key) != Key104Len {
		return nil, fmt.Errorf("wep: key must be %d or %d bytes, got %d", Key40Len, Key104Len, len(key))
	}
	return &Endpoint{key: append([]byte{}, key...), policy: policy}, nil
}

// keyFrame keys c with IV||secret, the RC4 key of one frame. The key is
// built in a stack array, so with c on the caller's stack keying a frame
// allocates nothing.
func keyFrame(c *rc4.Cipher, iv [IVLen]byte, secret []byte) error {
	var buf [IVLen + Key104Len]byte
	return c.SetKey(append(append(buf[:0], iv[:]...), secret...))
}

// Seal protects payload into a frame: IV(3) || keyID(1) || RC4(payload||ICV).
func (e *Endpoint) Seal(payload []byte) ([]byte, error) {
	var iv [IVLen]byte
	switch e.policy {
	case IVSequential:
		iv[0] = byte(e.nextIV >> 16)
		iv[1] = byte(e.nextIV >> 8)
		iv[2] = byte(e.nextIV)
		e.nextIV = (e.nextIV + 1) & 0xffffff
	case IVConstant:
		// all zero
	default:
		return nil, fmt.Errorf("wep: unknown IV policy %d", e.policy)
	}
	return SealWithIV(e.key, iv, payload)
}

// SealWithIV protects payload under an explicit IV (exported for the
// attack experiments, which need IV control).
func SealWithIV(secret []byte, iv [IVLen]byte, payload []byte) ([]byte, error) {
	var c rc4.Cipher
	if err := keyFrame(&c, iv, secret); err != nil {
		return nil, err
	}
	mFramesSealed.Inc()
	mSealBytes.Add(int64(len(payload)))
	if IsWeakIV(iv, len(secret)) {
		mWeakIVs.Inc()
	}
	if prof.Enabled() {
		pSealRC4.AddCycles(int64(cost.InstrPerByte(cost.RC4) * float64(len(payload)+ICVLen)))
		pSealCRC.AddCycles(int64(cost.InstrPerByte(cost.CRC32) * float64(len(payload))))
	}
	icv := crc32.ChecksumIEEE(payload)
	frame := make([]byte, IVLen+1+len(payload)+ICVLen)
	copy(frame, iv[:])
	frame[IVLen] = 0 // key ID
	body := frame[IVLen+1:]
	copy(body, payload)
	body[len(payload)] = byte(icv)
	body[len(payload)+1] = byte(icv >> 8)
	body[len(payload)+2] = byte(icv >> 16)
	body[len(payload)+3] = byte(icv >> 24)
	c.XORKeyStream(body, body)
	return frame, nil
}

// Open verifies and decrypts a frame, returning the payload.
func (e *Endpoint) Open(frame []byte) ([]byte, error) {
	return Open(e.key, frame)
}

// Open verifies and decrypts a frame under the given secret.
func Open(secret, frame []byte) ([]byte, error) {
	if len(frame) < IVLen+1+ICVLen {
		return nil, ErrTooShort
	}
	var iv [IVLen]byte
	copy(iv[:], frame[:IVLen])
	var c rc4.Cipher
	if err := keyFrame(&c, iv, secret); err != nil {
		return nil, err
	}
	clear := make([]byte, len(frame)-IVLen-1)
	c.XORKeyStream(clear, frame[IVLen+1:])
	payload := clear[:len(clear)-ICVLen]
	if prof.Enabled() {
		pOpenRC4.AddCycles(int64(cost.InstrPerByte(cost.RC4) * float64(len(clear))))
		pOpenCRC.AddCycles(int64(cost.InstrPerByte(cost.CRC32) * float64(len(payload))))
	}
	icvBytes := clear[len(clear)-ICVLen:]
	got := uint32(icvBytes[0]) | uint32(icvBytes[1])<<8 | uint32(icvBytes[2])<<16 | uint32(icvBytes[3])<<24
	if got != crc32.ChecksumIEEE(payload) {
		mICVFailures.Inc()
		journal.Emit(0, journal.LevelWarn, "wep", "icv_failure",
			journal.I("frame_bytes", int64(len(frame))))
		return nil, ErrBadICV
	}
	mFramesOpened.Inc()
	mOpenBytes.Add(int64(len(payload)))
	return payload[:len(payload):len(payload)], nil
}

// FrameIV extracts a frame's IV (public on the air — the property the
// attacks exploit).
func FrameIV(frame []byte) ([IVLen]byte, error) {
	var iv [IVLen]byte
	if len(frame) < IVLen {
		return iv, ErrTooShort
	}
	copy(iv[:], frame[:IVLen])
	return iv, nil
}

// Ciphertext returns the encrypted body of a frame (after IV and key ID).
func Ciphertext(frame []byte) ([]byte, error) {
	if len(frame) < IVLen+1 {
		return nil, ErrTooShort
	}
	return frame[IVLen+1:], nil
}

// IsWeakIV reports whether an IV falls in the FMS weak class
// (b+3, 255, x) for a secret of secretLen bytes — the class later WEP
// firmware skipped ("WEPplus") to blunt the key-recovery attack.
func IsWeakIV(iv [IVLen]byte, secretLen int) bool {
	if iv[1] != 255 {
		return false
	}
	idx := int(iv[0]) - 3
	return idx >= 0 && idx < secretLen
}

// NextIVSkippingWeak advances a sequential IV counter past the weak
// class, returning the filtered IV (the mitigation an endpoint applies;
// it reduces, but famously does not eliminate, key-schedule leakage).
func NextIVSkippingWeak(counter *uint32, secretLen int) [IVLen]byte {
	for {
		iv := [IVLen]byte{byte(*counter >> 16), byte(*counter >> 8), byte(*counter)}
		*counter = (*counter + 1) & 0xffffff
		if !IsWeakIV(iv, secretLen) {
			return iv
		}
	}
}
