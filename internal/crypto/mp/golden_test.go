package mp

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/meter_golden.json from the current code")

const meterGoldenPath = "testdata/meter_golden.json"

// goldenCase is one pinned exponentiation: the result, the cycles the
// meter charged and, for the traced variants, the SHA-256 of the trace
// (each sample as 8 big-endian bytes). Together they pin every
// extra-reduction flag the Montgomery core reports.
type goldenCase struct {
	Variant     string `json:"variant"`
	Bits        int    `json:"bits"`
	Seed        int64  `json:"seed"`
	Result      string `json:"result"`
	Cycles      uint64 `json:"cycles"`
	TraceLen    int    `json:"trace_len,omitempty"`
	TraceSHA256 string `json:"trace_sha256,omitempty"`
}

// randBits draws a bits-bit number from rng byte by byte, so the golden
// inputs do not depend on the platform's word size.
func randBits(rng *rand.Rand, bits int) *big.Int {
	b := make([]byte, (bits+7)/8)
	rng.Read(b)
	x := new(big.Int).SetBytes(b)
	return x.Rsh(x, uint(8*len(b)-bits))
}

// meterGolden runs the five exponentiations over odd (96, 160 bits) and
// even (192 .. 1024 bits) word counts with a full-length exponent each.
func meterGolden(t *testing.T) []goldenCase {
	type variant struct {
		name  string
		exp   func(c *MontCtx, base, exp *big.Int, m *CycleMeter) *big.Int
		trace func(c *MontCtx, base, exp *big.Int, m *CycleMeter) (*big.Int, []uint64)
	}
	variants := []variant{
		{name: "ModExp", exp: (*MontCtx).ModExp},
		{name: "ModExpConstTime", exp: (*MontCtx).ModExpConstTime},
		{name: "ModExpWindow", exp: (*MontCtx).ModExpWindow},
		{name: "ModExpWithTrace", trace: (*MontCtx).ModExpWithTrace},
		{name: "ModExpConstTimeWithTrace", trace: (*MontCtx).ModExpConstTimeWithTrace},
	}
	var out []goldenCase
	for _, bits := range []int{96, 160, 192, 256, 512, 1024} {
		for _, seed := range []int64{1, 2, 3} {
			rng := rand.New(rand.NewSource(seed*10007 + int64(bits)))
			n := randBits(rng, bits)
			n.SetBit(n, bits-1, 1)
			n.SetBit(n, 0, 1)
			ctx, err := NewMontCtx(n)
			if err != nil {
				t.Fatal(err)
			}
			base := randBits(rng, bits)
			base.Mod(base, n)
			exp := randBits(rng, bits)
			exp.SetBit(exp, bits-1, 1)
			for _, v := range variants {
				var m CycleMeter
				gc := goldenCase{Variant: v.name, Bits: bits, Seed: seed}
				var r *big.Int
				if v.exp != nil {
					r = v.exp(ctx, base, exp, &m)
				} else {
					var tr []uint64
					r, tr = v.trace(ctx, base, exp, &m)
					h := sha256.New()
					var b [8]byte
					for _, d := range tr {
						binary.BigEndian.PutUint64(b[:], d)
						h.Write(b[:])
					}
					gc.TraceLen = len(tr)
					gc.TraceSHA256 = hex.EncodeToString(h.Sum(nil))
				}
				gc.Result = r.Text(16)
				gc.Cycles = m.Cycles()
				out = append(out, gc)
			}
		}
	}
	return out
}

// TestMeterGolden pins results, metered cycles and SPA traces byte for
// byte, so a change to the Montgomery core cannot shift a single
// extra-reduction flag unnoticed. Regenerate only for an intended change
// of the meter: go test ./internal/crypto/mp -run TestMeterGolden -update
func TestMeterGolden(t *testing.T) {
	got := meterGolden(t)
	blob, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	blob = append(blob, '\n')
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(meterGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(meterGoldenPath, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(meterGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(blob, want) {
		return
	}
	var wantCases []goldenCase
	if err := json.Unmarshal(want, &wantCases); err != nil {
		t.Fatalf("%s: %v", meterGoldenPath, err)
	}
	if len(got) != len(wantCases) {
		t.Fatalf("%d cases, golden has %d", len(got), len(wantCases))
	}
	for i := range got {
		if got[i] != wantCases[i] {
			t.Errorf("case %d differs:\n got  %+v\n want %+v", i, got[i], wantCases[i])
		}
	}
	t.Fatal("meter output differs from " + meterGoldenPath)
}
