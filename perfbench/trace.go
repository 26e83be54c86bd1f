package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stack"
)

// tracer keeps the spans and per-connection counts of a traced phase in
// memory; write dumps them when the run ends. Spans are recorded around
// the benchmark's own calls into each layer's public functions, never
// inside the program under test. Every method is a no-op on a nil
// *tracer, which is how untraced phases run.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64

	mu     sync.Mutex
	spans  []span
	dialed map[string]dialRec // client local address -> its dial
	served []servedConn
}

// span is one timed call. Spans of one operation share Op, the ID of
// the operation's root span; Parent is the span that caused this one.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	N      int64  `json:"n"`
}

// dialRec ties a client socket to its operation, so the gateway side of
// the same connection can be matched to it by address.
type dialRec struct {
	Op   int64
	Done int64 // ns since t0 when the dial returned
}

// servedConn is the gateway's view of one accepted connection, as seen
// through the timing listener.
type servedConn struct {
	Remote   string `json:"remote"`
	Accepted int64  `json:"accepted_ns"`
	Closed   int64  `json:"closed_ns"`
	ReadNS   int64  `json:"read_ns"`
	WriteNS  int64  `json:"write_ns"`
	Writes   int64  `json:"writes"`
	Bytes    int64  `json:"bytes"`
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), dialed: map[string]dialRec{}}
}

// spanStart is an open span: its ID and start time.
type spanStart struct {
	id int64
	at time.Time
}

// begin opens a span.
func (t *tracer) begin() spanStart {
	if t == nil {
		return spanStart{}
	}
	return spanStart{id: t.nextID.Add(1), at: time.Now()}
}

// end closes s under parent within operation op; n is the bytes or
// items the call covered.
func (t *tracer) end(s spanStart, parent, op int64, layer, name string, n int64) {
	if t == nil {
		return
	}
	now := time.Now()
	sp := span{ID: s.id, Parent: parent, Op: op, Layer: layer, Name: name,
		Start: s.at.Sub(t.t0).Nanoseconds(), Dur: now.Sub(s.at).Nanoseconds(), N: n}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// dial records a finished client dial: its span and, keyed by the
// socket's local address, when it completed.
func (t *tracer) dial(s spanStart, parent, op int64, local string) {
	if t == nil {
		return
	}
	t.end(s, parent, op, "net", "dial", 0)
	t.mu.Lock()
	t.dialed[local] = dialRec{Op: op, Done: time.Since(t.t0).Nanoseconds()}
	t.mu.Unlock()
}

// durationsUS returns the durations of every layer/name span in µs.
func (t *tracer) durationsUS(layer, name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Layer == layer && s.Name == name {
			out = append(out, float64(s.Dur)/1e3)
		}
	}
	return out
}

// gatewayLayer derives the gateway's per-layer metrics from the
// connections the timing listener saw, over ops client operations.
func (t *tracer) gatewayLayer(ops int, m map[string]float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var waits []float64
	var busy, read, writes, bytes int64
	for _, c := range t.served {
		if d, ok := t.dialed[c.Remote]; ok {
			waits = append(waits, float64(c.Accepted-d.Done)/1e3)
		}
		busy += c.Closed - c.Accepted - c.ReadNS - c.WriteNS
		read += c.ReadNS
		writes += c.Writes
		bytes += c.Bytes
	}
	m["gateway.accept_wait_us.p50"] = percentile(waits, 0.5)
	if ops > 0 {
		m["gateway.busy_us_per_session"] = float64(busy) / 1e3 / float64(ops)
		m["gateway.read_wait_us_per_session"] = float64(read) / 1e3 / float64(ops)
		m["gateway.socket_writes_per_session"] = float64(writes) / float64(ops)
		m["gateway.wire_bytes_per_session"] = float64(bytes) / float64(ops)
	}
}

// write dumps the spans and served connections as JSON lines into dir.
func (t *tracer) write(dir, base string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, base+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err = enc.Encode(t.spans[i]); err != nil {
			break
		}
	}
	for i := range t.served {
		if err != nil {
			break
		}
		c := t.served[i]
		err = enc.Encode(struct {
			Op     int64      `json:"op"`
			Served servedConn `json:"gateway_conn"`
		}{t.dialed[c.Remote].Op, c})
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}

// timedListener hands gateway.Serve connections that time their socket
// reads and writes while a tracer is switched on. With none switched on
// it passes accepted connections through untouched.
type timedListener struct {
	net.Listener
	tr *atomic.Pointer[tracer]
}

func (l *timedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return c, err
	}
	tr := l.tr.Load()
	if tr == nil {
		return c, nil
	}
	return &timedConn{Conn: c, tr: tr, accepted: time.Now()}, nil
}

// timedConn accumulates the time one gateway connection spends inside
// socket Read and Write, and reports it to the tracer on Close.
type timedConn struct {
	net.Conn
	tr       *tracer
	accepted time.Time

	readNS, writeNS, writes, bytes atomic.Int64
	once                           sync.Once
}

func (c *timedConn) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Read(p)
	c.readNS.Add(int64(time.Since(t0)))
	c.bytes.Add(int64(n))
	return n, err
}

func (c *timedConn) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Write(p)
	c.writeNS.Add(int64(time.Since(t0)))
	c.writes.Add(1)
	c.bytes.Add(int64(n))
	return n, err
}

func (c *timedConn) Close() error {
	c.once.Do(func() {
		t := c.tr
		rec := servedConn{
			Remote:   c.RemoteAddr().String(),
			Accepted: c.accepted.Sub(t.t0).Nanoseconds(),
			Closed:   time.Since(t.t0).Nanoseconds(),
			ReadNS:   c.readNS.Load(),
			WriteNS:  c.writeNS.Load(),
			Writes:   c.writes.Load(),
			Bytes:    c.bytes.Load(),
		}
		t.mu.Lock()
		t.served = append(t.served, rec)
		t.mu.Unlock()
	})
	return c.Conn.Close()
}

// layerClock totals the time spent in one protection layer's Seal and
// Open calls, across both ends of the link.
type layerClock struct {
	seal, open atomic.Int64 // ns
}

// timedProtector decorates a stack.Protector with a layerClock while a
// tracer is switched on.
type timedProtector struct {
	p     stack.Protector
	clock *layerClock
	tr    *atomic.Pointer[tracer]
}

func (t *timedProtector) Seal(payload []byte) ([]byte, error) {
	if t.tr.Load() == nil {
		return t.p.Seal(payload)
	}
	t0 := time.Now()
	out, err := t.p.Seal(payload)
	t.clock.seal.Add(int64(time.Since(t0)))
	return out, err
}

func (t *timedProtector) Open(frame []byte) ([]byte, error) {
	if t.tr.Load() == nil {
		return t.p.Open(frame)
	}
	t0 := time.Now()
	out, err := t.p.Open(frame)
	t.clock.open.Add(int64(time.Since(t0)))
	return out, err
}
