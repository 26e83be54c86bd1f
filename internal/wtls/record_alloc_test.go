package wtls

import (
	"bytes"
	"testing"

	"repro/internal/suite"
)

// enabledPair returns seal/open half connections armed with identical
// keys, so records sealed by one open cleanly on the other.
func enabledPair(t testing.TB, suiteID uint16) (*halfConn, *halfConn) {
	t.Helper()
	s, err := suite.ByID(suiteID)
	if err != nil {
		t.Fatal(err)
	}
	macKey := make([]byte, s.MACKeyLen)
	key := make([]byte, s.KeyLen)
	iv := make([]byte, s.IVLen)
	for i := range macKey {
		macKey[i] = byte(i + 1)
	}
	for i := range key {
		key[i] = byte(i + 101)
	}
	for i := range iv {
		iv[i] = byte(i + 201)
	}
	var seal, open halfConn
	if err := seal.enable(s, macKey, key, iv); err != nil {
		t.Fatal(err)
	}
	if err := open.enable(s, macKey, key, iv); err != nil {
		t.Fatal(err)
	}
	return &seal, &open
}

// allocSuites are the 0-alloc-pinned representatives: one stream suite
// and both block sizes (8-byte 3DES, 16-byte AES).
var allocSuites = []struct {
	name string
	id   uint16
}{
	{"RC4_128_SHA_stream", 0x0005},
	{"3DES_EDE_CBC_SHA_block", 0x000A},
	{"AES_128_CBC_SHA_block", 0x002F},
}

// TestSealOpenZeroAllocs pins the steady-state record path at exactly 0
// allocations per sealed-and-opened record for stream and block suites —
// the invariant the aggregate-throughput benchmark depends on. A single
// record is a batch of one, the shape of every handshake, CCS and alert
// record a Conn sends and receives.
func TestSealOpenZeroAllocs(t *testing.T) {
	for _, tc := range allocSuites {
		t.Run(tc.name, func(t *testing.T) {
			seal, open := enabledPair(t, tc.id)
			payload := bytes.Repeat([]byte{0x5a}, 1024)
			in, frag := [][]byte{payload}, [][]byte{nil}
			roundtrip := func() {
				wire, err := seal.SealBatch(recordApplicationData, in)
				if err != nil {
					t.Fatal(err)
				}
				frag[0] = wire[recordHeaderLen:]
				got, err := open.OpenBatch(recordApplicationData, frag)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, payload) {
					t.Fatal("roundtrip mismatch")
				}
			}
			// Warm the reusable scratch to its working size first.
			for i := 0; i < 4; i++ {
				roundtrip()
			}
			if allocs := testing.AllocsPerRun(200, roundtrip); allocs != 0 {
				t.Fatalf("seal+open allocates %.1f allocs/op, want 0", allocs)
			}
		})
	}
}

// TestSealBatchZeroAllocs pins the batched path: sealing and opening a
// full batch must not allocate either, including the wire-buffer parse
// back into per-record fragments.
func TestSealBatchZeroAllocs(t *testing.T) {
	for _, tc := range allocSuites {
		t.Run(tc.name, func(t *testing.T) {
			seal, open := enabledPair(t, tc.id)
			payload := bytes.Repeat([]byte{0x33}, 512)
			payloads := make([][]byte, maxRecordsPerBatch)
			for i := range payloads {
				payloads[i] = payload
			}
			frags := make([][]byte, 0, maxRecordsPerBatch)
			batch := func() {
				wire, err := seal.SealBatch(recordApplicationData, payloads)
				if err != nil {
					t.Fatal(err)
				}
				frags = frags[:0]
				for off := 0; off < len(wire); {
					n := int(wire[off+3])<<8 | int(wire[off+4])
					frags = append(frags, wire[off+recordHeaderLen:off+recordHeaderLen+n])
					off += recordHeaderLen + n
				}
				if len(frags) != len(payloads) {
					t.Fatalf("parsed %d records, want %d", len(frags), len(payloads))
				}
				out, err := open.OpenBatch(recordApplicationData, frags)
				if err != nil {
					t.Fatal(err)
				}
				if len(out) != len(payload)*len(payloads) {
					t.Fatalf("batch opened %d bytes, want %d", len(out), len(payload)*len(payloads))
				}
			}
			for i := 0; i < 4; i++ {
				batch()
			}
			if allocs := testing.AllocsPerRun(100, batch); allocs != 0 {
				t.Fatalf("SealBatch+OpenBatch allocates %.1f allocs/op, want 0", allocs)
			}
		})
	}
}

// TestNullSuiteUnprotectZeroAllocs covers the pre-handshake NULL path:
// opening a batch of one on a disabled half connection must hand back the
// bytes from its reusable scratch, not a fresh copy per record.
func TestNullSuiteUnprotectZeroAllocs(t *testing.T) {
	var hc halfConn
	sealed := bytes.Repeat([]byte{0x77}, 256)
	frag := [][]byte{sealed}
	null := func() {
		got, err := hc.OpenBatch(recordHandshake, frag)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, sealed) {
			t.Fatal("null open mismatch")
		}
	}
	for i := 0; i < 4; i++ {
		null()
	}
	if allocs := testing.AllocsPerRun(200, null); allocs != 0 {
		t.Fatalf("null open allocates %.1f allocs/op, want 0", allocs)
	}
}
