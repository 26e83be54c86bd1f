package arq

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Frame layout (datagram-oriented — one frame per lower Read/Write):
//
//	type(1) | seq(2 BE) | payload | crc32(4 BE)
//
// The CRC-32 (IEEE) covers type, seq and payload. DATA frames carry
// application bytes under a sequence number; ACK frames carry the
// receiver's cumulative next-expected sequence number and no payload.
// NAK frames are laid out like ACKs: a go-back-N receiver sends one when
// it discards a frame it cannot read, naming the sequence it still
// expects.
const (
	frameData = 0x44 // 'D'
	frameAck  = 0x41 // 'A'
	frameNak  = 0x4E // 'N'

	headerLen  = 3
	trailerLen = 4
	// overhead is the per-frame ARQ framing cost in bytes.
	overhead = headerLen + trailerLen

	// FrameOverhead is the exported per-frame framing cost, for analytic
	// energy models that price ARQ traffic without running a link.
	FrameOverhead = overhead
)

// Frame parse errors.
var (
	ErrShortFrame = errors.New("arq: frame shorter than header + CRC")
	ErrBadCRC     = errors.New("arq: CRC mismatch")
	ErrBadType    = errors.New("arq: unknown frame type")
)

// encodeFrame builds one wire frame.
func encodeFrame(typ byte, seq uint16, payload []byte) []byte {
	f := make([]byte, headerLen+len(payload)+trailerLen)
	f[0] = typ
	binary.BigEndian.PutUint16(f[1:3], seq)
	copy(f[headerLen:], payload)
	crc := crc32.ChecksumIEEE(f[: headerLen+len(payload) : headerLen+len(payload)])
	binary.BigEndian.PutUint32(f[headerLen+len(payload):], crc)
	return f
}

// parseFrame validates and splits one wire frame. The returned payload
// aliases f.
func parseFrame(f []byte) (typ byte, seq uint16, payload []byte, err error) {
	if len(f) < overhead {
		return 0, 0, nil, ErrShortFrame
	}
	body := f[:len(f)-trailerLen]
	want := binary.BigEndian.Uint32(f[len(f)-trailerLen:])
	if crc32.ChecksumIEEE(body) != want {
		return 0, 0, nil, ErrBadCRC
	}
	typ = f[0]
	if typ != frameData && typ != frameAck && typ != frameNak {
		return 0, 0, nil, fmt.Errorf("%w %#02x", ErrBadType, typ)
	}
	seq = binary.BigEndian.Uint16(f[1:3])
	if typ != frameData && len(f) != overhead {
		return 0, 0, nil, fmt.Errorf("arq: %c frame with %d payload bytes", typ, len(f)-overhead)
	}
	return typ, seq, body[headerLen:], nil
}

// seqLess compares sequence numbers in RFC 1982 serial arithmetic, so
// windows keep working across the uint16 wrap.
func seqLess(a, b uint16) bool { return int16(a-b) < 0 }
