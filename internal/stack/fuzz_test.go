package stack

import (
	"bytes"
	"testing"
)

// FuzzReadFrame: arbitrary wire bytes through the framing codec must
// yield a frame or an error, never a panic or a hang; decoded frames must
// re-encode to the bytes consumed.
func FuzzReadFrame(f *testing.F) {
	seed, err := appendFrame(nil, []byte("a sealed frame"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0x00, 0x00})          // empty frame
	f.Add([]byte{0xff, 0xff, 1, 2, 3}) // oversized length claim
	f.Add([]byte{0x00, 0x05, 1, 2})    // truncated body
	f.Add([]byte{0x80, 0x01})          // MaxWireFrame+1 header
	f.Fuzz(func(t *testing.T, data []byte) {
		frame, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(frame) > MaxWireFrame {
			t.Fatalf("readFrame returned %d bytes over MaxWireFrame", len(frame))
		}
		out, err := appendFrame(nil, frame)
		if err != nil {
			t.Fatalf("decoded frame does not re-encode: %v", err)
		}
		if !bytes.Equal(out, data[:len(frame)+2]) {
			t.Fatal("re-encoded frame differs from consumed bytes")
		}
	})
}
