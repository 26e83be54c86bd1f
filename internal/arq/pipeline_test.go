package arq_test

import (
	"bytes"
	"io"
	"testing"
	"time"

	"repro/internal/arq"
	"repro/internal/chaos"
	"repro/internal/stack"
)

// pipeCfg is an ARQ config that keeps up to window DATA frames in
// flight, so frames pipeline on the wire ahead of their acks.
func pipeCfg(window int) arq.Config {
	return arq.Config{
		Window:            window,
		RetransmitTimeout: 20 * time.Millisecond,
		MaxRetries:        25,
	}
}

// echoRun pushes writes messages of msgLen bytes through an echo peer and
// returns the writer's final stats.
func echoRun(t *testing.T, ea, eb *arq.Endpoint, writes, msgLen int) arq.Stats {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, msgLen)
		for i := 0; i < writes; i++ {
			if _, err := io.ReadFull(eb, buf); err != nil {
				done <- err
				return
			}
			if _, err := eb.Write(buf); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	msg := make([]byte, msgLen)
	for i := range msg {
		msg[i] = byte(i * 13)
	}
	back := make([]byte, msgLen)
	for i := 0; i < writes; i++ {
		if _, err := ea.Write(msg); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if _, err := io.ReadFull(ea, back); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(back, msg) {
			t.Fatalf("echo %d corrupted", i)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	return ea.Stats()
}

// TestPipelineRoundtripPerfectLink: with several frames in flight each
// way, echoed multi-frame writes stay a reliable byte stream and first
// transmissions are never double-counted.
func TestPipelineRoundtripPerfectLink(t *testing.T) {
	ea, eb := duplexLink(t, chaos.Config{}, chaos.Config{}, pipeCfg(4))
	st := echoRun(t, ea, eb, 5, 2048)
	if st.Retransmits != 0 {
		t.Fatalf("perfect link retransmitted: %+v", st)
	}
	if st.PayloadOut != 5*2048 || st.PayloadIn != 5*2048 {
		t.Fatalf("payload accounting: %+v", st)
	}
}

// TestPipelineLossyIntegrity: echoed data survives a noisy channel at
// several window sizes.
func TestPipelineLossyIntegrity(t *testing.T) {
	for _, window := range []int{1, 4, 8} {
		aCfg := chaos.Config{Seed: 11, Drop: 0.08, BER: 1e-4}
		bCfg := chaos.Config{Seed: 12, Drop: 0.08, BER: 1e-4}
		ea, eb := duplexLink(t, aCfg, bCfg, pipeCfg(window))
		st := echoRun(t, ea, eb, 4, 1500)
		if st.PayloadIn != 4*1500 {
			t.Fatalf("window=%d: delivered %d bytes, want %d", window, st.PayloadIn, 4*1500)
		}
	}
}

// TestPipelineCloseUnblocks: closing both ends of a link must not hang,
// and a later write fails cleanly instead of blocking on an ack.
func TestPipelineCloseUnblocks(t *testing.T) {
	a, b := stack.Pipe()
	ea, err := arq.New(a, pipeCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	eb, err := arq.New(b, pipeCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	eb.Close()
	ea.Close()
	if _, err := ea.Write([]byte("after close")); err == nil {
		t.Fatal("write after close succeeded")
	}
}
