package wtls

import (
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"
)

// plainRecords frames each payload as one unprotected record of type
// typ: what a scripted peer puts on the wire before any keys exist.
func plainRecords(typ uint8, payloads ...[]byte) []byte {
	var wire []byte
	for _, p := range payloads {
		wire = append(appendHeader(wire, typ, len(p)), p...)
	}
	return wire
}

// plainAlert reads unprotected records from r until an alert arrives and
// returns it as the *AlertError a Conn would report.
func plainAlert(r io.Reader) error {
	rr := newRecordReader(r)
	for {
		typ, frag, err := rr.next()
		if err != nil {
			return err
		}
		if typ == recordAlert && len(frag) == 2 {
			return &AlertError{Level: frag[0], Description: frag[1]}
		}
	}
}

// TestUnexpectedRecordFailsClosed scripts a peer that sends a record the
// other side cannot accept at that point: a CCS before the ClientHello,
// application data in place of the ServerHello, a run of empty
// handshake records past maxEmptyRecords, and a handshake record after
// the handshake. In each case the victim must return within 5 s with an
// error naming the alert it sent, the peer must read unexpected_message,
// and no goroutine may be left behind.
func TestUnexpectedRecordFailsClosed(t *testing.T) {
	for _, tc := range []struct {
		name string
		// setup scripts the peer and returns the victim's failing call,
		// the victim's pipe end and how the peer reads the outcome.
		setup func(t *testing.T) (victim func() error, victimEnd io.ReadWriter, peerSees func() error)
	}{
		{"ccs before ClientHello", func(t *testing.T) (func() error, io.ReadWriter, func() error) {
			cp, sp := bufferedPipe()
			if _, err := cp.Write(plainRecords(recordChangeCipherSpec, []byte{1})); err != nil {
				t.Fatal(err)
			}
			return Server(sp, serverConfig(t)).Handshake, sp, func() error { return plainAlert(cp) }
		}},
		{"application data for ServerHello", func(t *testing.T) (func() error, io.ReadWriter, func() error) {
			cp, sp := bufferedPipe()
			if _, err := sp.Write(plainRecords(recordApplicationData, []byte("not a ServerHello"))); err != nil {
				t.Fatal(err)
			}
			return Client(cp, clientConfig(t)).Handshake, cp, func() error { return plainAlert(sp) }
		}},
		{"empty handshake records before ClientHello", func(t *testing.T) (func() error, io.ReadWriter, func() error) {
			cp, sp := bufferedPipe()
			if _, err := cp.Write(plainRecords(recordHandshake, make([][]byte, maxEmptyRecords+1)...)); err != nil {
				t.Fatal(err)
			}
			return Server(sp, serverConfig(t)).Handshake, sp, func() error { return plainAlert(cp) }
		}},
		{"handshake record after the handshake", func(t *testing.T) (func() error, io.ReadWriter, func() error) {
			client, server, _ := handshakePair(t, clientConfig(t), serverConfig(t))
			hello := (&clientHello{random: make([]byte, randomLen), suites: []uint16{0x000A}}).marshal()
			wire, err := client.out.SealBatch(recordHandshake, [][]byte{hello})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := client.conn.Write(wire); err != nil {
				t.Fatal(err)
			}
			read := func() error {
				_, err := server.Read(make([]byte, 64))
				return err
			}
			return read, server.conn, func() error {
				_, err := client.Read(make([]byte, 64))
				return err
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			victim, victimEnd, peerSees := tc.setup(t)
			done := make(chan error, 1)
			go func() { done <- victim() }()
			var verr error
			select {
			case verr = <-done:
			case <-time.After(5 * time.Second):
				// Unblock the victim so the failure leaves nothing behind.
				victimEnd.(*pipeEnd).r.close()
				<-done
				t.Fatal("victim still blocked after 5 s")
			}
			if verr == nil || !strings.Contains(verr.Error(), "sent unexpected_message alert") {
				t.Fatalf("victim error = %v, want the unexpected_message alert it sent", verr)
			}
			// End the victim's direction so a missing alert reads as EOF
			// rather than blocking.
			victimEnd.(*pipeEnd).CloseWrite()
			var alert *AlertError
			if err := peerSees(); !errors.As(err, &alert) || alert.Description != AlertUnexpectedMessage {
				t.Fatalf("peer saw %v, want alert %d", err, AlertUnexpectedMessage)
			}
			for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base; {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines left behind", runtime.NumGoroutine()-base)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestEmptyHandshakeRecordsWithinBound: exactly maxEmptyRecords empty
// handshake records ahead of the ClientHello do not fail the handshake.
func TestEmptyHandshakeRecordsWithinBound(t *testing.T) {
	cp, sp := bufferedPipe()
	if _, err := cp.Write(plainRecords(recordHandshake, make([][]byte, maxEmptyRecords)...)); err != nil {
		t.Fatal(err)
	}
	client, server := Client(cp, clientConfig(t)), Server(sp, serverConfig(t))
	srvErr := make(chan error, 1)
	go func() { srvErr <- server.Handshake() }()
	if err := client.Handshake(); err != nil {
		t.Fatalf("client handshake: %v", err)
	}
	if err := <-srvErr; err != nil {
		t.Fatalf("server handshake: %v", err)
	}
}

// TestRecordCountsSymmetric: every record one side sends, CCS and alerts
// included, is one the other side counts as received. Checked after a
// full and a resumed handshake, each followed by an echo and a
// close_notify.
func TestRecordCountsSymmetric(t *testing.T) {
	clientCache, serverCache := NewSessionCache(), NewSessionCache()
	for _, resumed := range []bool{false, true} {
		ccfg, scfg := clientConfig(t), serverConfig(t)
		ccfg.SessionCache, scfg.SessionCache = clientCache, serverCache
		client, server, _ := handshakePair(t, ccfg, scfg)
		if client.State().Resumed != resumed {
			t.Fatalf("resumed = %v, want %v", !resumed, resumed)
		}
		roundtrip(t, client, server, []byte("count every record"))
		if err := client.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := server.Read(make([]byte, 16)); err != io.EOF {
			t.Fatalf("server Read after close_notify = %v, want io.EOF", err)
		}
		cm, sm := client.Metrics(), server.Metrics()
		if cm.RecordsSent != sm.RecordsRcv || sm.RecordsSent != cm.RecordsRcv {
			t.Fatalf("resumed=%v: client sent %d, server received %d; server sent %d, client received %d",
				resumed, cm.RecordsSent, sm.RecordsRcv, sm.RecordsSent, cm.RecordsRcv)
		}
	}
}
