package wtls

import (
	"errors"
	"testing"
	"time"

	"repro/internal/crypto/modes"
	"repro/internal/suite"
)

// forgeKinds are the ways a CBC record can fail to open. A receiver must
// not tell them apart: any difference in error, alert, sequence number or
// work done is a padding oracle.
var forgeKinds = []string{"bad MAC", "bad padding", "padding swallows the MAC"}

// forgeRecord produces a fragment of three to six blocks that hc's peer
// rejects for the given reason, advancing hc as a seal would. wantPadOK
// reports whether the plaintext's PKCS#7 padding is well formed.
func forgeRecord(t *testing.T, hc *halfConn, kind string) (frag []byte, wantPadOK bool) {
	t.Helper()
	bs := hc.suite.BlockSize
	if kind == "padding swallows the MAC" {
		// Two blocks of data and a full pad block: valid padding that
		// leaves fewer bytes than the MAC needs.
		pt := make([]byte, 3*bs)
		for i := 2 * bs; i < len(pt); i++ {
			pt[i] = byte(bs)
		}
		frag = make([]byte, len(pt))
		if err := hc.cbc.EncryptInto(hc.cbcIV, pt, frag); err != nil {
			t.Fatal(err)
		}
		copy(hc.cbcIV, frag[len(frag)-bs:])
		hc.seq++
		return frag, true
	}
	// payload || MAC fills whole blocks, so the pad is one block of
	// bytes valued bs and the record spans at least three blocks.
	payload := make([]byte, 2*bs-hc.macLen%bs)
	wire, err := hc.SealBatch(recordApplicationData, [][]byte{payload})
	if err != nil {
		t.Fatal(err)
	}
	frag = append([]byte(nil), wire[recordHeaderLen:]...)
	if kind == "bad MAC" {
		frag[0] ^= 1 // garbles plaintext blocks 0 and 1; the pad survives
		return frag, true
	}
	frag[len(frag)-bs-1] ^= 1 // the pad length byte becomes bs^1 > bs
	return frag, false
}

// TestPaddingFailureLooksLikeMACFailure opens records with a bad MAC, a
// bad pad, and a valid pad too long to leave room for the MAC: each must
// be rejected with the same error after the same MAC work, advancing the
// sequence number the same way.
func TestPaddingFailureLooksLikeMACFailure(t *testing.T) {
	for _, id := range []uint16{0x000A, 0x002F} {
		s, err := suite.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(s.Name, func(t *testing.T) {
			for _, kind := range forgeKinds {
				seal, open := enabledPair(t, id)
				frag, wantPadOK := forgeRecord(t, seal, kind)
				// Decrypt independently to confirm the forgery hits the
				// intended branch.
				pt := make([]byte, len(frag))
				if err := modes.NewCBCCrypter(open.block).DecryptInto(open.cbcIV, frag, pt); err != nil {
					t.Fatal(err)
				}
				if _, err := modes.Unpad(pt, s.BlockSize); (err == nil) != wantPadOK {
					t.Fatalf("%s: padding valid = %v, want %v", kind, err == nil, wantPadOK)
				}
				if _, err := open.OpenBatch(recordApplicationData, [][]byte{frag}); err != errBadRecordMAC {
					t.Errorf("%s: open error = %v, want %v", kind, err, errBadRecordMAC)
				}
				if open.seq != 1 {
					t.Errorf("%s: seq = %d after the failed open, want 1", kind, open.seq)
				}
			}
		})
	}
}

// TestPaddingFailureAlert drives each forgery through a live connection:
// the server must fail every one with the same error, send
// bad_record_mac, and leave its read sequence number in the same place.
func TestPaddingFailureAlert(t *testing.T) {
	var firstErr string
	var firstSeq uint64
	for i, kind := range forgeKinds {
		ccfg, scfg := clientConfig(t), serverConfig(t)
		ccfg.Suites = []uint16{0x000A}
		scfg.Suites = []uint16{0x000A}
		client, server, _ := handshakePair(t, ccfg, scfg)
		frag, _ := forgeRecord(t, &client.out, kind)
		if _, err := client.conn.Write(append(appendHeader(nil, recordApplicationData, len(frag)), frag...)); err != nil {
			t.Fatal(err)
		}
		var rerr error
		read := make(chan struct{})
		go func() {
			_, rerr = server.Read(make([]byte, 64))
			close(read)
		}()
		select {
		case <-read:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: server Read still blocked", kind)
		}
		if rerr == nil {
			t.Fatalf("%s: server accepted a forged record", kind)
		}
		var alert *AlertError
		if _, err := client.Read(make([]byte, 64)); !errors.As(err, &alert) || alert.Description != AlertBadRecordMAC {
			t.Fatalf("%s: client saw %v, want alert %d", kind, err, AlertBadRecordMAC)
		}
		if i == 0 {
			firstErr, firstSeq = rerr.Error(), server.in.seq
			continue
		}
		if rerr.Error() != firstErr || server.in.seq != firstSeq {
			t.Errorf("%s: server error %q at seq %d; %s gave %q at seq %d",
				kind, rerr, server.in.seq, forgeKinds[0], firstErr, firstSeq)
		}
	}
}
