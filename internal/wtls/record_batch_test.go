package wtls

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/suite"
)

// batchSuites covers every bulk suite kind the record layer protects.
func batchSuites(t testing.TB) []uint16 {
	t.Helper()
	var ids []uint16
	for _, s := range suite.All() {
		if s.Kind == suite.BlockCipher || s.Kind == suite.StreamCipher {
			ids = append(ids, s.ID)
		}
	}
	if len(ids) == 0 {
		t.Fatal("no bulk suites registered")
	}
	return ids
}

// splitPayloads derives a deterministic fragment list from data: sizes
// walk the interesting boundaries (empty, one byte, block-unaligned,
// near-max).
func splitPayloads(data []byte) [][]byte {
	sizes := []int{0, 1, 7, 8, 63, 255, 1024}
	var out [][]byte
	for i := 0; len(data) > 0 && i < maxRecordsPerBatch; i++ {
		n := sizes[i%len(sizes)]
		if n > len(data) {
			n = len(data)
		}
		out = append(out, data[:n])
		data = data[n:]
	}
	if len(out) == 0 {
		out = [][]byte{{}}
	}
	return out
}

// TestSealBatchMatchesSequential: for every suite, SealBatch's wire bytes
// must be byte-identical to the concatenation of sequential single-record
// batches from an identically-keyed half connection, and OpenBatch must
// recover the exact plaintext concatenation whole and one record at a
// time.
func TestSealBatchMatchesSequential(t *testing.T) {
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i*31 + 7)
	}
	for _, id := range batchSuites(t) {
		s, _ := suite.ByID(id)
		t.Run(s.Name, func(t *testing.T) {
			payloads := splitPayloads(data)

			batchSeal, batchOpen := enabledPair(t, id)
			seqSeal, seqOpen := enabledPair(t, id)

			batchWire, err := batchSeal.SealBatch(recordApplicationData, payloads)
			if err != nil {
				t.Fatal(err)
			}
			batchWire = append([]byte(nil), batchWire...)

			var seqWire []byte
			for _, p := range payloads {
				w, err := seqSeal.SealBatch(recordApplicationData, [][]byte{p})
				if err != nil {
					t.Fatal(err)
				}
				seqWire = append(seqWire, w...)
			}
			if !bytes.Equal(batchWire, seqWire) {
				t.Fatalf("SealBatch wire differs from %d single-record batches", len(payloads))
			}

			// Parse the wire back into fragments and open both ways.
			var frags [][]byte
			for off := 0; off < len(batchWire); {
				n := int(batchWire[off+3])<<8 | int(batchWire[off+4])
				frags = append(frags, batchWire[off+recordHeaderLen:off+recordHeaderLen+n])
				off += recordHeaderLen + n
			}
			got, err := batchOpen.OpenBatch(recordApplicationData, frags)
			if err != nil {
				t.Fatal(err)
			}
			var want []byte
			for _, p := range payloads {
				want = append(want, p...)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("OpenBatch plaintext mismatch: got %d bytes, want %d", len(got), len(want))
			}
			var seqGot []byte
			for _, f := range frags {
				p, err := seqOpen.OpenBatch(recordApplicationData, [][]byte{f})
				if err != nil {
					t.Fatal(err)
				}
				seqGot = append(seqGot, p...)
			}
			if !bytes.Equal(seqGot, want) {
				t.Fatal("single-record OpenBatch plaintext mismatch")
			}
		})
	}
}

// FuzzSealBatch cross-checks batch sealing against single-record batches
// on fuzzer-chosen payload splits and suites, then proves the batch opens
// back to the original bytes.
func FuzzSealBatch(f *testing.F) {
	f.Add([]byte("hello world"), uint8(0), uint8(3))
	f.Add(bytes.Repeat([]byte{0xab}, 2048), uint8(1), uint8(8))
	f.Add([]byte{}, uint8(2), uint8(1))
	suites := []uint16{0x0005, 0x0004, 0x000A, 0x002F}
	f.Fuzz(func(t *testing.T, data []byte, suiteSel, nFrags uint8) {
		id := suites[int(suiteSel)%len(suites)]
		n := int(nFrags)%maxRecordsPerBatch + 1

		// Chop data into n fragments (sizes from the data length).
		var payloads [][]byte
		rest := data
		for i := 0; i < n; i++ {
			size := len(rest) / (n - i)
			payloads = append(payloads, rest[:size])
			rest = rest[size:]
		}

		batchSeal, batchOpen := enabledPair(t, id)
		seqSeal, _ := enabledPair(t, id)

		batchWire, err := batchSeal.SealBatch(recordApplicationData, payloads)
		if err != nil {
			t.Fatal(err)
		}
		batchWire = append([]byte(nil), batchWire...)
		var seqWire []byte
		for _, p := range payloads {
			w, err := seqSeal.SealBatch(recordApplicationData, [][]byte{p})
			if err != nil {
				t.Fatal(err)
			}
			seqWire = append(seqWire, w...)
		}
		if !bytes.Equal(batchWire, seqWire) {
			t.Fatalf("batch/sequential wire divergence (suite %#04x, %d frags)", id, n)
		}

		var frags [][]byte
		for off := 0; off < len(batchWire); {
			sz := int(batchWire[off+3])<<8 | int(batchWire[off+4])
			frags = append(frags, batchWire[off+recordHeaderLen:off+recordHeaderLen+sz])
			off += recordHeaderLen + sz
		}
		got, err := batchOpen.OpenBatch(recordApplicationData, frags)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("OpenBatch did not recover the original bytes")
		}
	})
}

// TestBatchConcurrentConns hammers the batched Write/Read paths from
// several connections at once (run under -race in CI): each pair pushes
// multi-record payloads both directions while a concurrent writer
// interleaves small records on the same conn.
func TestBatchConcurrentConns(t *testing.T) {
	const (
		pairs    = 4
		writes   = 25
		chunkLen = 3*maxRecordPayload + 517 // 4 records per Write batch
	)
	ccfgs := make([]*Config, pairs)
	scfgs := make([]*Config, pairs)
	for i := range ccfgs {
		ccfgs[i] = clientConfig(t)
		scfgs[i] = serverConfig(t)
		ccfgs[i].Suites = []uint16{[]uint16{0x0005, 0x000A, 0x002F, 0x0004}[i%4]}
	}
	var wg sync.WaitGroup
	for i := 0; i < pairs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ccfg, scfg := ccfgs[i], scfgs[i]
			cp, sp := bufferedPipe()
			client := Client(cp, ccfg)
			server := Server(sp, scfg)

			srvDone := make(chan error, 1)
			go func() {
				// Echo everything back, reading through the batch-drain path.
				buf := make([]byte, 64<<10)
				echoed := 0
				want := writes * (chunkLen + len("ping"))
				for echoed < want {
					n, err := server.Read(buf)
					if err != nil {
						srvDone <- fmt.Errorf("server read: %w", err)
						return
					}
					if _, err := server.Write(buf[:n]); err != nil {
						srvDone <- fmt.Errorf("server write: %w", err)
						return
					}
					echoed += n
				}
				srvDone <- nil
			}()

			chunk := bytes.Repeat([]byte{byte(i + 1)}, chunkLen)
			var cw sync.WaitGroup
			cw.Add(2)
			go func() {
				defer cw.Done()
				for j := 0; j < writes; j++ {
					if _, err := client.Write(chunk); err != nil {
						t.Errorf("pair %d large write: %v", i, err)
						return
					}
				}
			}()
			go func() {
				defer cw.Done()
				for j := 0; j < writes; j++ {
					if _, err := client.Write([]byte("ping")); err != nil {
						t.Errorf("pair %d small write: %v", i, err)
						return
					}
				}
			}()

			// Drain the echo concurrently with the writers.
			total := writes * (chunkLen + len("ping"))
			got := 0
			buf := make([]byte, 64<<10)
			for got < total {
				n, err := client.Read(buf)
				if err != nil {
					t.Errorf("pair %d client read: %v", i, err)
					break
				}
				got += n
			}
			cw.Wait()
			if err := <-srvDone; err != nil {
				t.Error(err)
			}
			if got != total {
				t.Errorf("pair %d echoed %d bytes, want %d", i, got, total)
			}
		}(i)
	}
	wg.Wait()
}
