package stack

import (
	"bytes"
	"errors"
	"hash"
	"io"
	"strings"
	"testing"

	"repro/internal/crypto/des"
	"repro/internal/crypto/prng"
	"repro/internal/crypto/sha1"
	"repro/internal/esp"
	"repro/internal/wep"
)

// wireTap is a one-directional transport: the sender's layer writes into
// it, the test mutates the captured frames, and the receiver's layer
// reads the mutated wire image back.
type wireTap struct {
	bytes.Buffer
}

// frames splits the captured wire image into framed units.
func (w *wireTap) frames(t *testing.T) [][]byte {
	t.Helper()
	r := bytes.NewReader(w.Bytes())
	var out [][]byte
	for r.Len() > 0 {
		f, err := readFrame(r)
		if err != nil {
			t.Fatalf("capture not frame-aligned: %v", err)
		}
		out = append(out, f)
	}
	return out
}

// replay re-serializes frames into a readable transport.
func replay(t *testing.T, frames [][]byte) io.ReadWriter {
	t.Helper()
	var wire []byte
	for _, f := range frames {
		var err error
		if wire, err = appendFrame(wire, f); err != nil {
			t.Fatal(err)
		}
	}
	return &struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(wire), io.Discard}
}

func newWEP(t *testing.T, key byte) Protector {
	t.Helper()
	ep, err := wep.NewEndpoint([]byte{key, 2, 3, 4, 5}, wep.IVSequential)
	if err != nil {
		t.Fatal(err)
	}
	return ep
}

func newESP(t *testing.T, macKey string) Protector {
	t.Helper()
	block, err := des.NewTripleCipher(bytes.Repeat([]byte{9}, 24))
	if err != nil {
		t.Fatal(err)
	}
	sa, err := esp.NewSA(7, block, func() hash.Hash { return sha1.New() },
		[]byte(macKey), prng.NewDRBG([]byte("corrupt")))
	if err != nil {
		t.Fatal(err)
	}
	return &ESPPair{Out: sa, In: sa}
}

// TestLayerOpenFailures drives each protection layer's Read error path
// with corrupted inbound frames: the error must name the layer, and the
// connection must stay usable for the next (intact) frame.
func TestLayerOpenFailures(t *testing.T) {
	cases := []struct {
		name    string
		layer   string
		sender  func(t *testing.T) Protector
		reader  func(t *testing.T) Protector
		corrupt func(frame []byte) []byte // applied to the first frame
		// usableAfter: the second, untouched frame still delivers.
		usableAfter bool
	}{
		{
			name: "wep truncated", layer: "wep",
			sender: func(t *testing.T) Protector { return newWEP(t, 1) },
			reader: func(t *testing.T) Protector { return newWEP(t, 1) },
			corrupt: func(f []byte) []byte {
				return f[:wep.IVLen+1] // below IV+ICV minimum
			},
			usableAfter: true,
		},
		{
			name: "wep flipped byte", layer: "wep",
			sender: func(t *testing.T) Protector { return newWEP(t, 1) },
			reader: func(t *testing.T) Protector { return newWEP(t, 1) },
			corrupt: func(f []byte) []byte {
				g := append([]byte(nil), f...)
				g[len(g)-1] ^= 0x80 // inside ciphertext/ICV
				return g
			},
			usableAfter: true,
		},
		{
			name: "wep wrong key", layer: "wep",
			sender:  func(t *testing.T) Protector { return newWEP(t, 1) },
			reader:  func(t *testing.T) Protector { return newWEP(t, 99) },
			corrupt: func(f []byte) []byte { return f },
			// Every frame fails under the wrong key; the connection fails
			// cleanly rather than recovering.
			usableAfter: false,
		},
		{
			name: "esp truncated", layer: "esp",
			sender: func(t *testing.T) Protector { return newESP(t, "mac-key") },
			reader: func(t *testing.T) Protector { return newESP(t, "mac-key") },
			corrupt: func(f []byte) []byte {
				return f[:6] // below SPI+seq minimum
			},
			usableAfter: true,
		},
		{
			name: "esp flipped byte", layer: "esp",
			sender: func(t *testing.T) Protector { return newESP(t, "mac-key") },
			reader: func(t *testing.T) Protector { return newESP(t, "mac-key") },
			corrupt: func(f []byte) []byte {
				g := append([]byte(nil), f...)
				g[len(g)/2] ^= 0x01
				return g
			},
			usableAfter: true,
		},
		{
			name: "esp wrong mac key", layer: "esp",
			sender:      func(t *testing.T) Protector { return newESP(t, "mac-key") },
			reader:      func(t *testing.T) Protector { return newESP(t, "WRONG") },
			corrupt:     func(f []byte) []byte { return f },
			usableAfter: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Sender seals two frames onto the tap.
			tap := &wireTap{}
			sendLayer, err := NewLayer(tc.layer, tap, tc.sender(t), 1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sendLayer.Write([]byte("first frame")); err != nil {
				t.Fatal(err)
			}
			if _, err := sendLayer.Write([]byte("second frame")); err != nil {
				t.Fatal(err)
			}
			frames := tap.frames(t)
			if len(frames) != 2 {
				t.Fatalf("expected 2 captured frames, got %d", len(frames))
			}
			frames[0] = tc.corrupt(frames[0])

			recvLayer, err := NewLayer(tc.layer, replay(t, frames), tc.reader(t), 1)
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 64)
			_, err = recvLayer.Read(buf)
			if err == nil {
				t.Fatal("corrupted frame opened successfully")
			}
			if !strings.Contains(err.Error(), "stack/"+tc.layer+": open:") {
				t.Fatalf("error does not wrap the layer name: %v", err)
			}
			// The layer must not deliver garbage into its read buffer.
			n, err2 := recvLayer.Read(buf)
			if tc.usableAfter {
				if err2 != nil {
					t.Fatalf("connection unusable after one bad frame: %v", err2)
				}
				if string(buf[:n]) != "second frame" {
					t.Fatalf("post-corruption delivery wrong: %q", buf[:n])
				}
			} else if err2 == nil {
				t.Fatal("wrong-key connection delivered data")
			}
		})
	}
}

// TestCorruptFrameInLayeredStack: the same property inside a full duplex
// WEP+ESP stack — a flipped wire byte surfaces as a wrapped layer error on
// the reader, and the next frame still flows.
func TestCorruptFrameInLayeredStack(t *testing.T) {
	tap := &wireTap{}
	alice := New(tap)
	wepA, err := wep.NewEndpoint([]byte{1, 2, 3, 4, 5}, wep.IVSequential)
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.Push("wep", wepA, 1); err != nil {
		t.Fatal(err)
	}
	if err := alice.Push("esp", newESPPair(t, "x", "y"), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Top().Write([]byte("tampered in flight")); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Top().Write([]byte("clean")); err != nil {
		t.Fatal(err)
	}

	frames := tap.frames(t)
	// Each ESP unit (length header and body) crosses the WEP layer as one
	// WEP frame. Corrupt the WEP frame sealing the first ESP unit — the
	// whole unit is lost, so the next message stays parseable.
	if len(frames) != 2 {
		t.Fatalf("expected 2 wire frames, got %d", len(frames))
	}
	frames[0][wep.IVLen+2] ^= 0x10

	bob := New(replay(t, frames))
	wepB, err := wep.NewEndpoint([]byte{1, 2, 3, 4, 5}, wep.IVSequential)
	if err != nil {
		t.Fatal(err)
	}
	if err := bob.Push("wep", wepB, 1); err != nil {
		t.Fatal(err)
	}
	if err := bob.Push("esp", newESPPair(t, "y", "x"), 1); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	_, err = bob.Top().Read(buf)
	if err == nil {
		t.Fatal("tampered frame delivered")
	}
	if !strings.Contains(err.Error(), "stack/wep: open:") || !errors.Is(err, wep.ErrBadICV) {
		t.Fatalf("want wrapped WEP ICV error, got %v", err)
	}
	n, err := bob.Top().Read(buf)
	if err != nil {
		t.Fatalf("stack unusable after tampered frame: %v", err)
	}
	if string(buf[:n]) != "clean" {
		t.Fatalf("got %q", buf[:n])
	}
}

// countingWriter counts the lower Writes a layer makes.
type countingWriter struct {
	wireTap
	writes int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	return c.wireTap.Write(p)
}

// TestOneLowerWritePerFrame: each framed unit — length header and sealed
// frame — reaches the lower transport as exactly one Write, so over a
// message-oriented lower layer (WEP, ARQ) a unit costs one lower message.
func TestOneLowerWritePerFrame(t *testing.T) {
	cw := &countingWriter{}
	l, err := NewLayer("wep", cw, newWEP(t, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Write(bytes.Repeat([]byte{1}, 100)); err != nil {
		t.Fatal(err)
	}
	if cw.writes != 1 {
		t.Fatalf("one-chunk Write made %d lower writes, want 1", cw.writes)
	}
	// A payload over maxFrame is sealed as three chunks: three writes.
	if _, err := l.Write(make([]byte, 2*maxFrame+1)); err != nil {
		t.Fatal(err)
	}
	if cw.writes != 4 {
		t.Fatalf("three-chunk Write made %d more lower writes, want 3", cw.writes-1)
	}
	if n := len(cw.frames(t)); n != 4 {
		t.Fatalf("wire holds %d framed units, want 4", n)
	}
}

// TestReadsTwoWriteSegmentation: a sender that emits each ESP unit's
// length header and body as two separate WEP frames (the framing before
// units went out in one write) is still read correctly, so peers on
// either side of that change interoperate.
func TestReadsTwoWriteSegmentation(t *testing.T) {
	tap := &wireTap{}
	wepOut, err := NewLayer("wep", tap, newWEP(t, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	espOut := newESPPair(t, "x", "y")
	msgs := []string{"header then body", "and again"}
	for _, m := range msgs {
		frame, err := espOut.Seal([]byte(m))
		if err != nil {
			t.Fatal(err)
		}
		unit, err := appendFrame(nil, frame)
		if err != nil {
			t.Fatal(err)
		}
		for _, part := range [][]byte{unit[:2], unit[2:]} {
			if _, err := wepOut.Write(part); err != nil {
				t.Fatal(err)
			}
		}
	}
	frames := tap.frames(t)
	if len(frames) != 2*len(msgs) {
		t.Fatalf("expected %d WEP frames, got %d", 2*len(msgs), len(frames))
	}

	bob := New(replay(t, frames))
	if err := bob.Push("wep", newWEP(t, 1), 1); err != nil {
		t.Fatal(err)
	}
	if err := bob.Push("esp", newESPPair(t, "y", "x"), 1); err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs {
		buf := make([]byte, len(m))
		if _, err := io.ReadFull(bob.Top(), buf); err != nil {
			t.Fatal(err)
		}
		if string(buf) != m {
			t.Fatalf("got %q, want %q", buf, m)
		}
	}
}
