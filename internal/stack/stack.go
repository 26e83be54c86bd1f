// Package stack composes the paper's layered security hierarchy
// (Figure 5) into one appliance-side protocol stack: a raw transport at
// the bottom, then framed protection layers (WEP-style link security,
// ESP-style network security), with a WTLS connection typically run over
// the top by the caller.
//
// Section 3.1's motivating example — a wireless-LAN PDA that needs WEP at
// the link layer, IPSec for its VPN and SSL for secure browsing, all at
// once — is exactly a three-deep Stack. Each layer accounts its payload
// bytes, frame expansion and modeled instruction cost so that the platform
// (internal/core) can price the whole hierarchy.
package stack

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/arq"
	"repro/internal/esp"
)

// Protector seals payloads into frames and opens frames back into
// payloads — the shape shared by wep.Endpoint and esp SA pairs.
type Protector interface {
	Seal(payload []byte) ([]byte, error)
	Open(frame []byte) ([]byte, error)
}

// MaxWireFrame is the single bound on a framed unit as it crosses the
// wire, enforced identically on both sides: appendFrame refuses to emit a
// larger frame and readFrame refuses to accept one. (The 2-byte length
// header could describe up to 0xffff bytes; anything above MaxWireFrame
// is treated as a framing error, not a frame.)
const MaxWireFrame = 1 << 15

// maxSealOverhead is the worst-case expansion a Protector.Seal may add
// (IVs, SPIs, sequence numbers, padding, ICVs — WEP adds 7 bytes, ESP at
// most ~40). Write chunks payloads at maxFrame so sealed frames always
// fit MaxWireFrame.
const maxSealOverhead = 64

// maxFrame bounds a single framed payload chunk.
const maxFrame = MaxWireFrame - maxSealOverhead

// Layer is one framed protection layer over a lower transport.
type Layer struct {
	name         string
	lower        io.ReadWriter
	prot         Protector
	perByteInstr float64

	readBuf  []byte
	writeBuf []byte // one framed unit, reused across Writes

	payloadOut, payloadIn int
	frameOut, frameIn     int
	instr                 float64
}

// NewLayer wraps lower with the given protector. perByteInstr is the
// modeled instruction cost per payload byte (cipher + integrity).
func NewLayer(name string, lower io.ReadWriter, p Protector, perByteInstr float64) (*Layer, error) {
	if lower == nil || p == nil {
		return nil, errors.New("stack: nil transport or protector")
	}
	return &Layer{name: name, lower: lower, prot: p, perByteInstr: perByteInstr}, nil
}

// Name returns the layer's name.
func (l *Layer) Name() string { return l.name }

// Write seals p into frames on the lower transport, each framed unit
// (length header and sealed frame) in one lower Write: over a message-
// oriented lower layer one unit then costs one lower message, and over
// ARQ one acknowledged Write.
func (l *Layer) Write(p []byte) (int, error) {
	total := 0
	for len(p) > 0 {
		n := len(p)
		if n > maxFrame {
			n = maxFrame
		}
		frame, err := l.prot.Seal(p[:n])
		if err != nil {
			return total, fmt.Errorf("stack/%s: seal: %w", l.name, err)
		}
		unit, err := appendFrame(l.writeBuf[:0], frame)
		if err != nil {
			return total, err
		}
		l.writeBuf = unit
		if _, err := l.lower.Write(unit); err != nil {
			return total, err
		}
		l.payloadOut += n
		l.frameOut += len(frame) + 2
		l.instr += float64(n) * l.perByteInstr
		total += n
		p = p[n:]
	}
	return total, nil
}

// Read opens frames from the lower transport into p.
func (l *Layer) Read(p []byte) (int, error) {
	for len(l.readBuf) == 0 {
		frame, err := readFrame(l.lower)
		if err != nil {
			return 0, err
		}
		payload, err := l.prot.Open(frame)
		if err != nil {
			return 0, fmt.Errorf("stack/%s: open: %w", l.name, err)
		}
		l.readBuf = append(l.readBuf, payload...)
		l.payloadIn += len(payload)
		l.frameIn += len(frame) + 2
		l.instr += float64(len(payload)) * l.perByteInstr
	}
	n := copy(p, l.readBuf)
	l.readBuf = l.readBuf[n:]
	return n, nil
}

// Stats reports the layer's accounting.
type Stats struct {
	Name                  string
	PayloadOut, PayloadIn int
	FrameOut, FrameIn     int // includes framing overhead
	Instr                 float64
}

// Stats returns a snapshot of the layer's accounting.
func (l *Layer) Stats() Stats {
	return Stats{
		Name:       l.name,
		PayloadOut: l.payloadOut, PayloadIn: l.payloadIn,
		FrameOut: l.frameOut, FrameIn: l.frameIn,
		Instr: l.instr,
	}
}

// appendFrame appends frame behind its 2-byte length header to dst.
func appendFrame(dst, frame []byte) ([]byte, error) {
	if len(frame) > MaxWireFrame {
		return dst, fmt.Errorf("stack: outbound frame %d bytes exceeds MaxWireFrame %d", len(frame), MaxWireFrame)
	}
	dst = append(dst, byte(len(frame)>>8), byte(len(frame)))
	return append(dst, frame...), nil
}

// readFrame reads one framed unit. It reads the header and body as a
// byte stream, so it accepts a unit however the sender segmented it.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [2]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(hdr[0])<<8 | int(hdr[1])
	if n > MaxWireFrame {
		return nil, fmt.Errorf("stack: inbound frame %d bytes exceeds MaxWireFrame %d", n, MaxWireFrame)
	}
	frame := make([]byte, n)
	if _, err := io.ReadFull(r, frame); err != nil {
		return nil, err
	}
	return frame, nil
}

// ESPPair adapts a pair of unidirectional SAs into a Protector.
type ESPPair struct {
	Out, In *esp.SA
}

// Seal seals on the outbound SA.
func (p *ESPPair) Seal(payload []byte) ([]byte, error) { return p.Out.Seal(payload) }

// Open opens on the inbound SA.
func (p *ESPPair) Open(frame []byte) ([]byte, error) { return p.In.Open(frame) }

// sublayer is one rung of the stack: a byte transport with accounting.
// Both framed Protector layers and the ARQ reliability layer satisfy it.
type sublayer interface {
	io.ReadWriter
	Name() string
	Stats() Stats
}

// Stack is a bottom-up composition of protection layers over a transport.
type Stack struct {
	transport io.ReadWriter
	layers    []sublayer
}

// New creates a stack over the raw transport.
func New(transport io.ReadWriter) *Stack {
	return &Stack{transport: transport}
}

// Push adds a protection layer on top of the current stack.
func (s *Stack) Push(name string, p Protector, perByteInstr float64) error {
	l, err := NewLayer(name, s.Top(), p, perByteInstr)
	if err != nil {
		return err
	}
	s.layers = append(s.layers, l)
	return nil
}

// arqLayer adapts an arq.Endpoint to the stack's accounting interface.
type arqLayer struct {
	name         string
	e            *arq.Endpoint
	perByteInstr float64
}

func (l *arqLayer) Read(p []byte) (int, error)  { return l.e.Read(p) }
func (l *arqLayer) Write(p []byte) (int, error) { return l.e.Write(p) }
func (l *arqLayer) Name() string                { return l.name }

func (l *arqLayer) Stats() Stats {
	st := l.e.Stats()
	return Stats{
		Name:       l.name,
		PayloadOut: st.PayloadOut, PayloadIn: st.PayloadIn,
		FrameOut: st.BytesOut, FrameIn: st.BytesIn,
		Instr: float64(st.PayloadOut+st.PayloadIn) * l.perByteInstr,
	}
}

// PushARQ adds an ARQ reliability layer on top of the current stack —
// normally pushed first, directly over a lossy frame-oriented transport
// such as chaos.FaultyTransport (each lower Read must return one whole
// frame; a raw byte pipe will not do). perByteInstr models the CRC and
// header processing cost per payload byte. The returned endpoint exposes
// retransmit statistics and must be Closed to stop its receive loop.
func (s *Stack) PushARQ(name string, cfg arq.Config, perByteInstr float64) (*arq.Endpoint, error) {
	e, err := arq.New(s.Top(), cfg)
	if err != nil {
		return nil, err
	}
	s.layers = append(s.layers, &arqLayer{name: name, e: e, perByteInstr: perByteInstr})
	return e, nil
}

// Top returns the highest layer (or the raw transport when empty); run
// application traffic — or a wtls.Conn — over it.
func (s *Stack) Top() io.ReadWriter {
	if len(s.layers) == 0 {
		return s.transport
	}
	return s.layers[len(s.layers)-1]
}

// Report returns per-layer statistics, bottom-up.
func (s *Stack) Report() []Stats {
	out := make([]Stats, 0, len(s.layers))
	for _, l := range s.layers {
		out = append(out, l.Stats())
	}
	return out
}

// TotalInstr sums the modeled instruction cost across layers.
func (s *Stack) TotalInstr() float64 {
	t := 0.0
	for _, l := range s.layers {
		t += l.Stats().Instr
	}
	return t
}

// WireBytesOut returns the bytes the bottom layer put on the wire — the
// figure the radio energy model charges for. With an ARQ bottom layer
// this includes acks and retransmissions.
func (s *Stack) WireBytesOut() int {
	if len(s.layers) == 0 {
		return 0
	}
	return s.layers[0].Stats().FrameOut
}
