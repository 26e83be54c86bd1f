package arq

import (
	"bytes"
	"testing"
)

// FuzzParseFrame: arbitrary wire bytes must parse cleanly or error,
// never panic; frames that do parse must re-encode to the same bytes.
func FuzzParseFrame(f *testing.F) {
	f.Add(encodeFrame(frameData, 0, []byte("payload")))
	f.Add(encodeFrame(frameData, 0xffff, nil))
	f.Add(encodeFrame(frameAck, 7, nil))
	f.Add(encodeFrame(frameNak, 7, nil))
	f.Add(encodeFrame(frameNak, 0xffff, nil))
	f.Add(encodeFrame(frameNak, 7, []byte("nak with payload"))) // rejected
	f.Add([]byte{})
	f.Add([]byte{frameData, 0, 0})
	f.Add(encodeFrame(0x7f, 3, []byte("bad type")))
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, seq, payload, err := parseFrame(data)
		if err != nil {
			return
		}
		if typ != frameData && len(payload) != 0 {
			t.Fatalf("%c frame parsed with %d payload bytes", typ, len(payload))
		}
		if got := encodeFrame(typ, seq, payload); !bytes.Equal(got, data) {
			t.Fatalf("roundtrip mismatch: %x -> %x", data, got)
		}
	})
}

// blackhole is a lower transport whose reads block until closed and whose
// writes vanish, so a fuzzed endpoint's receive loop and ack emission
// stay inert.
type blackhole struct{ done chan struct{} }

func (b *blackhole) Read(p []byte) (int, error)  { <-b.done; return 0, errClosed }
func (b *blackhole) Write(p []byte) (int, error) { return len(p), nil }
func (b *blackhole) Close() error                { close(b.done); return nil }

var errClosed = ErrLinkDown // any terminal error works for the stub

// FuzzHandleFrame: live endpoints fed arbitrary inbound frames —
// malformed acks, NAKs, stale sequence numbers, truncated data — must
// never panic. A stop-and-wait and a go-back-N endpoint (which answers
// unreadable frames with NAKs) each persist across iterations so state
// accumulates adversarially.
func FuzzHandleFrame(f *testing.F) {
	var eps []*Endpoint
	for _, window := range []int{1, 8} {
		e, err := New(&blackhole{done: make(chan struct{})}, Config{Window: window})
		if err != nil {
			f.Fatal(err)
		}
		f.Cleanup(func() { e.Close() })
		eps = append(eps, e)
	}

	f.Add(encodeFrame(frameData, 0, []byte("in order")))
	f.Add(encodeFrame(frameData, 9999, []byte("far future")))
	f.Add(encodeFrame(frameAck, 0, nil))
	f.Add(encodeFrame(frameAck, 40000, nil)) // ack for frames never sent
	f.Add(encodeFrame(frameNak, 0, nil))
	f.Add(encodeFrame(frameNak, 1, []byte("x")))
	f.Add([]byte{frameAck, 0xff})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, e := range eps {
			e.handleFrame(data)
			// Drain anything delivered so the buffer cannot grow unboundedly.
			e.mu.Lock()
			e.rcvBuf = e.rcvBuf[:0]
			e.mu.Unlock()
		}
	})
}
