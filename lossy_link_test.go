package mobilesec

// End-to-end robustness: the full WTLS handshake and a record exchange
// complete over a radio link that drops 1% of frames and flips bits at a
// 1e-4 BER, because an ARQ reliability layer sits between the lossy PHY
// and the protection layers. Every fault is seeded, so the run is
// reproducible, and every retransmission shows up in the ARQ statistics.

import (
	"bytes"
	"hash"
	"io"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/crypto/des"
	"repro/internal/crypto/prng"
	"repro/internal/crypto/sha1"
	"repro/internal/esp"
	"repro/internal/stack"
	"repro/internal/wep"
)

// buildLossyStack wraps one pipe end in a seeded fault injector, then
// layers ARQ + WEP + ESP over it — the paper's Figure 5 hierarchy with a
// reliability layer under the ciphers.
func buildLossyStack(t testing.TB, link io.ReadWriteCloser, faults FaultConfig, tx, rx string) (*Stack, *ARQEndpoint, *FaultyTransport) {
	t.Helper()
	ft, err := NewFaultyTransport(link, faults)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStack(ft)
	ep, err := s.PushARQ("arq", ARQConfig{
		Window:            8,
		RetransmitTimeout: 10 * time.Millisecond,
		MaxRetries:        25,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	wepEP, err := wep.NewEndpoint([]byte{1, 2, 3, 4, 5}, wep.IVSequential)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Push("wep", wepEP, cost.InstrPerByte(cost.RC4)+4); err != nil {
		t.Fatal(err)
	}
	mkSA := func(seed string) *esp.SA {
		block, err := des.NewTripleCipher(bytes.Repeat([]byte{7}, 24))
		if err != nil {
			t.Fatal(err)
		}
		sa, err := esp.NewSA(0xBEEF, block, func() hash.Hash { return sha1.New() },
			[]byte("lossy-mac-key"), prng.NewDRBG([]byte(seed)))
		if err != nil {
			t.Fatal(err)
		}
		return sa
	}
	if err := s.Push("esp", &stack.ESPPair{Out: mkSA(tx), In: mkSA(rx)},
		cost.BulkInstrPerByte(cost.DES3, cost.SHA1)); err != nil {
		t.Fatal(err)
	}
	return s, ep, ft
}

func TestWTLSOverLossyLink(t *testing.T) {
	pdaLink, gwLink := NewDuplexPipe()
	// 1% frame loss, one flipped bit per 10 kbit.
	lossy := func(seed int64) FaultConfig { return FaultConfig{Seed: seed, Drop: 0.01, BER: 1e-4} }
	pdaStack, pdaARQ, pdaFT := buildLossyStack(t, pdaLink, lossy(0x10551), "p2g", "g2p")
	gwStack, gwARQ, gwFT := buildLossyStack(t, gwLink, lossy(0x10552), "g2p", "p2g")
	defer pdaARQ.Close()
	defer gwARQ.Close()

	ca, err := NewCA("Operator", NewDRBG([]byte("lossy-ca")), 512)
	if err != nil {
		t.Fatal(err)
	}
	gwKey, err := GenerateRSAKey(NewDRBG([]byte("lossy-gw")), 512)
	if err != nil {
		t.Fatal(err)
	}
	gwCert, err := ca.Issue("shop.gateway", 7, &gwKey.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	client := WTLSClient(pdaStack.Top(), &Config{
		Rand: NewDRBG([]byte("lossy-c")), RootCA: &ca.Key.PublicKey, ServerName: "shop.gateway",
	})
	server := WTLSServer(gwStack.Top(), &Config{
		Rand: NewDRBG([]byte("lossy-s")), Certificate: gwCert, PrivateKey: gwKey,
	})

	// 1 KB each way through the handshaked channel; the gateway echoes a
	// transform so delivery, not just connectivity, is proven.
	request := bytes.Repeat([]byte("pay:1.99;"), 114)[:1024]
	srvDone := make(chan error, 1)
	go func() {
		buf := make([]byte, 2048)
		total := 0
		for total < len(request) {
			n, err := server.Read(buf[total:])
			if err != nil {
				srvDone <- err
				return
			}
			total += n
		}
		if !bytes.Equal(buf[:total], request) {
			srvDone <- io.ErrUnexpectedEOF
			return
		}
		reply := bytes.ToUpper(buf[:total])
		_, err := server.Write(reply)
		srvDone <- err
	}()

	if _, err := client.Write(request); err != nil {
		t.Fatalf("client write over lossy link: %v", err)
	}
	reply := make([]byte, len(request))
	if _, err := io.ReadFull(client, reply); err != nil {
		t.Fatalf("client read over lossy link: %v", err)
	}
	if err := <-srvDone; err != nil {
		t.Fatalf("gateway: %v", err)
	}
	if !bytes.Equal(reply, bytes.ToUpper(request)) {
		t.Fatal("reply corrupted end-to-end despite ARQ")
	}

	// The link really was hostile, and ARQ really did repair it.
	faults := 0
	for _, st := range []FaultStats{pdaFT.Stats(), gwFT.Stats()} {
		faults += st.Dropped + st.Corrupted
	}
	if faults == 0 {
		t.Fatal("fault injector produced a clean link; test proves nothing")
	}
	retx := pdaARQ.Stats().Retransmits + gwARQ.Stats().Retransmits
	if retx == 0 {
		t.Fatal("no retransmissions despite injected faults")
	}
	for _, ep := range []*ARQEndpoint{pdaARQ, gwARQ} {
		st := ep.Stats()
		if st.RetransmitBytes == 0 && st.Retransmits > 0 {
			t.Fatal("retransmit bytes not accounted")
		}
		if st.BytesOut <= st.PayloadOut {
			t.Fatal("wire bytes should exceed payload (headers + acks + retx)")
		}
	}

	// The stack report itemizes the reliability layer under the ciphers,
	// and the radio-facing byte count includes the repair traffic.
	rep := pdaStack.Report()
	if len(rep) != 3 || rep[0].Name != "arq" || rep[1].Name != "wep" || rep[2].Name != "esp" {
		t.Fatalf("unexpected layer report: %+v", rep)
	}
	if pdaStack.WireBytesOut() != pdaARQ.Stats().BytesOut {
		t.Fatal("stack wire bytes disagree with ARQ accounting")
	}
}

// TestWTLSOverLossyLinkDeterministic: the fault schedule is a pure
// function of the seed, so two runs over the same seeds inject the same
// pre-repair byte stream. (Retransmission counts may differ with timer
// scheduling; the delivered plaintext and the fault decisions may not.)
func TestWTLSOverLossyLinkDeterministic(t *testing.T) {
	run := func() ([]byte, error) {
		a, b := NewDuplexPipe()
		fa, err := NewFaultyTransport(a, FaultConfig{Seed: 77, Drop: 0.02, BER: 2e-4})
		if err != nil {
			return nil, err
		}
		fb, err := NewFaultyTransport(b, FaultConfig{Seed: 78, Drop: 0.02, BER: 2e-4})
		if err != nil {
			return nil, err
		}
		ea, err := NewARQEndpoint(fa, ARQConfig{RetransmitTimeout: 5 * time.Millisecond, MaxRetries: 30})
		if err != nil {
			return nil, err
		}
		defer ea.Close()
		eb, err := NewARQEndpoint(fb, ARQConfig{RetransmitTimeout: 5 * time.Millisecond, MaxRetries: 30})
		if err != nil {
			return nil, err
		}
		defer eb.Close()
		msg := bytes.Repeat([]byte("determinism"), 93) // ~1 KB
		errc := make(chan error, 1)
		go func() {
			_, err := ea.Write(msg)
			errc <- err
		}()
		got := make([]byte, len(msg))
		if _, err := io.ReadFull(eb, got); err != nil {
			return nil, err
		}
		if err := <-errc; err != nil {
			return nil, err
		}
		return got, nil
	}
	first, err := run()
	if err != nil {
		t.Fatal(err)
	}
	second, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("same seeds delivered different payloads")
	}
}
