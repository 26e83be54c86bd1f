package prng

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// katSeeds covers an empty seed, short seeds, and seeds at and beyond the
// SHA-1 block size.
var katSeeds = [][]byte{
	nil,
	[]byte("s"),
	[]byte("bench-ca"),
	bytes.Repeat([]byte{0xa5}, 64),
	bytes.Repeat([]byte("entropy!"), 25),
}

// katTranscript drives a DRBG through a mixed call pattern and returns
// everything it produced, integers and float bits as big-endian words.
func katTranscript(seed []byte) []byte {
	d := NewDRBG(seed)
	var out []byte
	for _, n := range []int{0, 1, 20, 21, 100} {
		out = append(out, d.Bytes(n)...)
	}
	d.Reseed(nil)
	out = append(out, d.Bytes(7)...)
	d.Reseed([]byte("more entropy"))
	out = append(out, d.Bytes(7)...)
	for _, n := range []int{1, 10, 1000003, 1 << 31} {
		out = binary.BigEndian.AppendUint64(out, uint64(d.Intn(n)))
	}
	out = binary.BigEndian.AppendUint64(out, math.Float64bits(d.Float64()))
	out = binary.BigEndian.AppendUint64(out, math.Float64bits(d.NormFloat64()))
	return append(out, d.Bytes(33)...)
}

// TestDRBGKnownAnswers pins the HMAC_DRBG output stream. The expected
// values were produced by the implementation that re-keyed a fresh
// HMAC-SHA-1 for every MAC, so they prove the saved-pad-state rewrite
// changed no output byte.
func TestDRBGKnownAnswers(t *testing.T) {
	want := []struct{ head, sum string }{
		{"d4c28e2671fd4851e3efa39cfcc75d648accd99d26",
			"2ddd6df011bef294eb60ac5876d3865524412d1729e3df4624d7e0cd9658510a"},
		{"566ce21e112eb78810fd7ed4673aab047371b93c0b",
			"e24afb5a1cc841840ce8781dd645eb5db37826d18e848ebc4c4038e091a97b93"},
		{"b7056b1e1ab50ebcd28959f3bfd01545e59ac738c2",
			"9b4dd5f556a3e93d8013ba6862f6875c8d3b727d088c3a9d62ac84f2c2ab6c0e"},
		{"70bf023a68470f6435736eaf2ca5864b69f7069486",
			"31f8cb8b0255c2fd9376cda6fd1d108620e97d18e87a1c75ef922e74a946a640"},
		{"baacdb5cbc1fe7f5021d5787fd377ce08bc017134f",
			"202448e5b4c0b408e629ffc4051fe91e9731fb900f01de20530b8645dc0b880e"},
	}
	for i, seed := range katSeeds {
		tr := katTranscript(seed)
		sum := sha256.Sum256(tr)
		if head := hex.EncodeToString(tr[:21]); head != want[i].head {
			t.Errorf("seed %d: first 21 bytes %s, want %s", i, head, want[i].head)
		}
		if got := hex.EncodeToString(sum[:]); got != want[i].sum {
			t.Errorf("seed %d: transcript SHA-256 %s, want %s", i, got, want[i].sum)
		}
	}
}
