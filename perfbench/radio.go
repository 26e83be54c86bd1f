package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/arq"
	"repro/internal/chaos"
	"repro/internal/cost"
	"repro/internal/crypto/des"
	"repro/internal/crypto/prng"
	"repro/internal/crypto/sha1"
	"repro/internal/esp"
	"repro/internal/gateway"
	"repro/internal/stack"
	"repro/internal/wep"
	"repro/internal/wtls"
)

// Stack-lossy shape: the paper's Figure 5 handset hierarchy over a
// radio that drops 0.1 % of frames and flips bits at 1e-5.
const (
	radioDrop    = 0.001
	radioBER     = 1e-5
	radioTxn     = 1024 // request bytes, echoed back
	fingerprintN = 500  // transactions the fingerprint counts cover
)

var radioARQ = arq.Config{Window: 8, RetransmitTimeout: 10 * time.Millisecond, MaxRetries: 25}

// radioEnd is one side of the link: its lossy PHY, its stack and the
// ARQ endpoint that must be closed to stop its receive loop.
type radioEnd struct {
	ft  *chaos.FaultyTransport
	st  *stack.Stack
	arq *arq.Endpoint
}

// radio is a handset and a gateway joined by an in-memory lossy link,
// with 3DES WTLS over ESP(3DES+SHA-1), WEP and ARQ on both sides; the
// gateway side echoes every byte it reads.
type radio struct {
	seed           int64
	pool           []byte
	cli, srv       radioEnd
	client, server *wtls.Conn
	served         chan error
	handshakeUS    float64 // the client's handshake during set-up
	nextID         int

	tr       atomic.Pointer[tracer]
	wep, esp layerClock
}

// newRadioEnd stacks ARQ, WEP and ESP over one end of the link. The
// protectors get timing decorators when traced.
func (r *radio) newRadioEnd(link io.ReadWriteCloser, faultSeed int64, tx, rx string, traced bool) (radioEnd, error) {
	ft, err := chaos.New(link, chaos.Config{Seed: faultSeed, Drop: radioDrop, BER: radioBER})
	if err != nil {
		return radioEnd{}, err
	}
	st := stack.New(ft)
	ep, err := st.PushARQ("arq", radioARQ, 1)
	if err != nil {
		return radioEnd{}, err
	}
	end := radioEnd{ft: ft, st: st, arq: ep}
	wepEP, err := wep.NewEndpoint([]byte{1, 2, 3, 4, 5}, wep.IVSequential)
	if err != nil {
		end.arq.Close()
		return radioEnd{}, err
	}
	sa := func(dir string) (*esp.SA, error) {
		block, err := des.NewTripleCipher(bytes.Repeat([]byte{7}, 24))
		if err != nil {
			return nil, err
		}
		return esp.NewSA(0xBEEF, block, func() hash.Hash { return sha1.New() },
			[]byte("perfbench-esp-mac"), prng.NewDRBG([]byte(fmt.Sprintf("perfbench/esp/%d/%s", r.seed, dir))))
	}
	out, err := sa(tx)
	if err == nil {
		var in *esp.SA
		if in, err = sa(rx); err == nil {
			var wp, ep stack.Protector = wepEP, &stack.ESPPair{Out: out, In: in}
			if traced {
				wp = &timedProtector{p: wp, clock: &r.wep, tr: &r.tr}
				ep = &timedProtector{p: ep, clock: &r.esp, tr: &r.tr}
			}
			if err = st.Push("wep", wp, cost.InstrPerByte(cost.RC4)+4); err == nil {
				err = st.Push("esp", ep, cost.BulkInstrPerByte(cost.DES3, cost.SHA1))
			}
		}
	}
	if err != nil {
		end.arq.Close()
		return radioEnd{}, err
	}
	return end, nil
}

// setupStackLossy builds both stacks, runs the WTLS handshake over them
// and one verified transaction. Set-up n of a run draws its own fault
// schedule, so the median set-up time averages over many loss patterns
// instead of inheriting the one the seed happens to give the handshake.
func setupStackLossy(seed int64, pool []byte, traced bool, n int) (env, error) {
	ca, key, cert, err := gateway.DevPKI(pkiSeed, serverName, rsaBits)
	if err != nil {
		return nil, err
	}
	r := &radio{seed: seed, pool: pool, served: make(chan error, 1)}
	faults := int64(mix64(uint64(seed), uint64(n)))
	a, b := stack.Pipe()
	if r.cli, err = r.newRadioEnd(a, faults, "h2g", "g2h", traced); err != nil {
		a.Close()
		b.Close()
		return nil, err
	}
	if r.srv, err = r.newRadioEnd(b, faults+1, "g2h", "h2g", traced); err != nil {
		r.cli.arq.Close()
		b.Close()
		return nil, err
	}
	r.client = wtls.Client(r.cli.st.Top(), &wtls.Config{
		Rand: prng.NewDRBG([]byte(fmt.Sprintf("perfbench/handset/%d", seed))), Suites: []uint16{suite3DES},
		RootCA: &ca.Key.PublicKey, ServerName: serverName,
	})
	r.server = wtls.Server(r.srv.st.Top(), &wtls.Config{
		Rand:        prng.NewDRBG([]byte(fmt.Sprintf("perfbench/radio-gateway/%d", seed))),
		Certificate: cert, PrivateKey: key,
	})
	go r.echo()
	t0 := time.Now()
	if err := r.client.Handshake(); err != nil {
		r.close()
		return nil, fmt.Errorf("handshake over the stack: %w", err)
	}
	r.handshakeUS = float64(time.Since(t0)) / 1e3
	if err := r.txn(-1, nil); err != nil {
		r.close()
		return nil, fmt.Errorf("first transaction: %w", err)
	}
	return r, nil
}

// echo is the gateway side: it writes back whatever it reads until the
// connection ends. On an error it closes its end of the link, so a
// handset blocked in Read fails instead of waiting forever.
func (r *radio) echo() {
	buf := make([]byte, 4*radioTxn)
	for {
		n, err := r.server.Read(buf)
		if err == nil {
			_, err = r.server.Write(buf[:n])
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = nil
			} else {
				r.srv.arq.Close()
			}
			r.served <- err
			return
		}
	}
}

// txn sends one seed-derived request and verifies its echo; a wrong
// echo is errMismatch.
func (r *radio) txn(id int, tr *tracer) error {
	off := int(mix64(uint64(r.seed), uint64(int64(id))) % uint64(len(r.pool)-radioTxn+1))
	want := r.pool[off : off+radioTxn]
	got := make([]byte, radioTxn)
	s := tr.begin()
	es := tr.begin()
	ws := tr.begin()
	if _, err := r.client.Write(want); err != nil {
		return err
	}
	tr.end(ws, es.id, s.id, "wtls", "write", radioTxn)
	if _, err := io.ReadFull(r.client, got); err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return errMismatch
	}
	tr.end(es, s.id, s.id, "wtls", "echo", radioTxn)
	tr.end(s, 0, s.id, "stack", "txn", radioTxn)
	return nil
}

// linkStats sums both ends' ARQ and PHY counters.
type linkStats struct {
	arq arq.Stats
	phy chaos.Stats
}

func (r *radio) linkStats() linkStats {
	var ls linkStats
	for _, e := range []radioEnd{r.cli, r.srv} {
		a, p := e.arq.Stats(), e.ft.Stats()
		ls.arq.DataSent += a.DataSent
		ls.arq.Retransmits += a.Retransmits
		ls.arq.CRCErrors += a.CRCErrors
		ls.arq.OutOfOrder += a.OutOfOrder
		ls.arq.BytesOut += a.BytesOut
		ls.arq.PayloadOut += a.PayloadOut
		ls.phy.Dropped += p.Dropped
		ls.phy.Corrupted += p.Corrupted
		ls.phy.Frames += p.Frames
	}
	return ls
}

// measure runs transactions one at a time until d has passed. The
// fingerprint is taken after the phase's first fingerprintN
// transactions, so it does not depend on how many fit in d.
func (r *radio) measure(d time.Duration, tr *tracer) *phase {
	r.tr.Store(tr)
	defer r.tr.Store(nil)
	ph := &phase{layer: map[string]float64{}}
	before := r.linkStats()
	wep0, wep1, esp0, esp1 := r.wep.seal.Load(), r.wep.open.Load(), r.esp.seal.Load(), r.esp.open.Load()
	var fp *linkStats
	t0 := time.Now()
	deadline := t0.Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		s := time.Now()
		err := r.txn(r.nextID, tr)
		r.nextID++
		if err != nil {
			ph.lat = append(ph.lat, posInf)
			if errors.Is(err, errMismatch) {
				ph.errs = append(ph.errs, fmt.Sprintf("transaction %d: %v", r.nextID-1, err))
			}
			// A failed transaction leaves the stream unusable: stop.
			break
		}
		ph.lat = append(ph.lat, float64(time.Since(s))/1e6)
		ph.goodBytes += radioTxn
		if i+1 == fingerprintN {
			ls := r.linkStats()
			fp = &ls
		}
	}
	ph.wall = time.Since(t0)
	after := r.linkStats()
	if fp == nil {
		fp = &after
	}
	ph.fp = map[string]float64{
		"transactions":           float64(min(len(ph.lat), fingerprintN)),
		"arq.retransmits":        float64(fp.arq.Retransmits - before.arq.Retransmits),
		"arq.data_sent":          float64(fp.arq.DataSent - before.arq.DataSent),
		"chaos.frames":           float64(fp.phy.Frames - before.phy.Frames),
		"chaos.frames_dropped":   float64(fp.phy.Dropped - before.phy.Dropped),
		"chaos.frames_corrupted": float64(fp.phy.Corrupted - before.phy.Corrupted),
		"wtls.resumed_frac":      0,
	}
	m := ph.layer
	m["arq.retransmits"] = float64(after.arq.Retransmits - before.arq.Retransmits)
	m["arq.data_sent"] = float64(after.arq.DataSent - before.arq.DataSent)
	if out := after.arq.BytesOut - before.arq.BytesOut; out > 0 {
		m["arq.goodput"] = float64(after.arq.PayloadOut-before.arq.PayloadOut) / float64(out)
	}
	m["arq.crc_errors"] = float64(after.arq.CRCErrors - before.arq.CRCErrors)
	m["arq.out_of_order"] = float64(after.arq.OutOfOrder - before.arq.OutOfOrder)
	m["chaos.frames_dropped"] = float64(after.phy.Dropped - before.phy.Dropped)
	m["chaos.frames_corrupted"] = float64(after.phy.Corrupted - before.phy.Corrupted)
	m["wep.seal_us_total"] = float64(r.wep.seal.Load()-wep0) / 1e3
	m["wep.open_us_total"] = float64(r.wep.open.Load()-wep1) / 1e3
	m["esp.seal_us_total"] = float64(r.esp.seal.Load()-esp0) / 1e3
	m["esp.open_us_total"] = float64(r.esp.open.Load()-esp1) / 1e3
	m["wtls.handshake_client_us.p50"] = r.handshakeUS
	m["wtls.handshake_client_us.p90"] = r.handshakeUS
	m["wtls.handshake_client_us.p99"] = r.handshakeUS
	return ph
}

// close ends the WTLS session, stops both ARQ endpoints (closing the
// link under them) and waits for the echo goroutine.
func (r *radio) close() error {
	r.client.Close()
	r.cli.arq.Close()
	r.srv.arq.Close()
	err := <-r.served
	if err != nil && !errors.Is(err, io.ErrClosedPipe) {
		return fmt.Errorf("radio gateway: %w", err)
	}
	return nil
}
