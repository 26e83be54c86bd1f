package wtls

import (
	"bytes"
	"io"
	"testing"
)

// Fuzz targets for everything that parses attacker-controlled bytes. The
// seed corpus runs under plain `go test`; `go test -fuzz` explores
// further. The invariant is uniform: parsers must return errors, never
// panic, and anything that parses must re-marshal to an equivalent value.

func FuzzParseClientHello(f *testing.F) {
	ch := &clientHello{random: make([]byte, 32), sessionID: []byte{1, 2}, suites: []uint16{0x000A, 0x0005}}
	_, body, _ := splitHandshake(ch.marshal())
	f.Add(body)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseClientHello(data)
		if err != nil {
			return
		}
		// Re-marshal and re-parse: must be stable.
		_, body, err := splitHandshake(m.marshal())
		if err != nil {
			t.Fatalf("remarshal failed: %v", err)
		}
		m2, err := parseClientHello(body)
		if err != nil {
			t.Fatalf("reparse failed: %v", err)
		}
		if !bytes.Equal(m.random, m2.random) || !bytes.Equal(m.sessionID, m2.sessionID) {
			t.Fatal("roundtrip not stable")
		}
	})
}

func FuzzParseServerHello(f *testing.F) {
	sh := &serverHello{random: make([]byte, 32), sessionID: []byte{9}, suite: 0x002F}
	_, body, _ := splitHandshake(sh.marshal())
	f.Add(body)
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseServerHello(data)
		if err != nil {
			return
		}
		_, body, _ := splitHandshake(m.marshal())
		if _, err := parseServerHello(body); err != nil {
			t.Fatalf("reparse failed: %v", err)
		}
	})
}

func FuzzParseServerKeyExchange(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 1, 3, 0, 1, 4, 0, 1, 5})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseServerKeyExchange(data)
		if err != nil {
			return
		}
		_ = m.signedParams(make([]byte, 32), make([]byte, 32))
	})
}

func FuzzUnmarshalCertificate(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x41}, 60))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := UnmarshalCertificate(data)
		if err != nil {
			return
		}
		c2, err := UnmarshalCertificate(c.Marshal())
		if err != nil {
			t.Fatalf("remarshal failed: %v", err)
		}
		if c2.Subject != c.Subject || c2.Serial != c.Serial {
			t.Fatal("certificate roundtrip not stable")
		}
	})
}

// chunkReader serves at most n bytes per Read and counts its calls, so
// a test can tell whether the record reader went back to the transport.
type chunkReader struct {
	r     io.Reader
	n     int
	reads int
}

func (cr *chunkReader) Read(p []byte) (int, error) {
	cr.reads++
	if len(p) > cr.n {
		p = p[:cr.n]
	}
	return cr.r.Read(p)
}

// FuzzReadRecord drives the connection's recordReader over hostile bytes
// arriving in fuzzer-sized transport reads. Every record next returns
// must be the type and fragment framed in the input, no fragment may
// exceed maxRecordFragment, and when peek reports a complete record,
// next must return that type without reading the transport.
func FuzzReadRecord(f *testing.F) {
	f.Add([]byte{recordHandshake, 0x03, 0x01, 0x00, 0x01, 0xAA}, uint16(1))
	f.Add([]byte{}, uint16(0))
	// Oversized length field: the header claims 0xFFFF fragment bytes,
	// far past maxRecordFragment. The parser must reject on the header
	// alone — an attacker-controlled length may never size an
	// allocation.
	f.Add([]byte{recordHandshake, 0x03, 0x01, 0xFF, 0xFF}, uint16(5))
	f.Add(append([]byte{recordApplicationData, 0x03, 0x01, 0xFF, 0xFF},
		bytes.Repeat([]byte{0x41}, 1024)...), uint16(4096))
	// Three records in one read: the second and third are peekable.
	f.Add([]byte{
		recordHandshake, 0x03, 0x01, 0x00, 0x02, 0x01, 0x02,
		recordApplicationData, 0x03, 0x01, 0x00, 0x00,
		recordAlert, 0x03, 0x01, 0x00, 0x02, 0x02, 0x28,
	}, uint16(64))
	f.Fuzz(func(t *testing.T, data []byte, chunk uint16) {
		src := &chunkReader{r: bytes.NewReader(data), n: int(chunk)%(2*maxRecordFragment) + 1}
		rr := newRecordReader(src)
		off := 0
		for {
			peeked, complete := rr.peek()
			reads := src.reads
			typ, frag, err := rr.next()
			if complete && (err != nil || typ != peeked || src.reads != reads) {
				t.Fatalf("peek reported a complete type %d record; next = type %d, %v after %d transport reads",
					peeked, typ, err, src.reads-reads)
			}
			if err != nil {
				return
			}
			if len(frag) > maxRecordFragment {
				t.Fatalf("fragment of %d bytes past the %d cap", len(frag), maxRecordFragment)
			}
			if typ != data[off] || !bytes.Equal(frag, data[off+recordHeaderLen:off+recordHeaderLen+len(frag)]) {
				t.Fatalf("record at offset %d does not match its framing in the input", off)
			}
			off += recordHeaderLen + len(frag)
		}
	})
}

func FuzzSplitHandshake(f *testing.F) {
	f.Add(wrapHandshake(typeClientHello, []byte{1, 2, 3}))
	f.Add([]byte{})
	// Oversized 24-bit length field (16 MiB claim in a 4-byte message):
	// must error out before buffering, not attempt to read it.
	f.Add([]byte{typeClientHello, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, body, err := splitHandshake(data)
		if err != nil {
			return
		}
		if len(body) > maxHandshakeMsg {
			t.Fatalf("accepted %d-byte handshake body past the %d cap", len(body), maxHandshakeMsg)
		}
		// Anything accepted must re-frame to the identical bytes.
		if !bytes.Equal(wrapHandshake(typ, body), data) {
			t.Fatal("split/wrap roundtrip not stable")
		}
	})
}
