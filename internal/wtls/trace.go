package wtls

import (
	"repro/internal/obs"
)

// Distributed-tracing support. A Conn does not own a trace — the
// session driver (loadgen worker, gateway session handler) does — so
// the connection records under whatever parent span the driver attaches
// with SetTraceParent: per-batch record spans live, and handshake
// phases buffered-then-replayed.
//
// The buffering exists for the server half: the client's trace context
// arrives in the first application record, i.e. *after* the server's
// handshake already ran. Phase boundaries are therefore captured
// unconditionally (when the distributed tracer is armed) into a small
// local log on the tracer's own clock, and replayed as spans once the
// parent is known. The client attaches its parent before Handshake, so
// its phases replay immediately at handshake end — one code path for
// both roles.

// hsPhase is one buffered handshake-phase timing; endUS is -1 while
// the phase is still open.
type hsPhase struct {
	name    string
	startUS int64
	endUS   int64
}

// phaseMark closes the open handshake phase (if any) at the tracer
// clock's current reading and opens a new one named name; "" only
// closes. Free when the distributed tracer is disarmed.
func (c *Conn) phaseMark(name string) {
	if !obs.DTraceEnabled() {
		return
	}
	now := obs.DTraceNowUS()
	c.trMu.Lock()
	if n := len(c.hsPhases); n > 0 && c.hsPhases[n-1].endUS < 0 {
		c.hsPhases[n-1].endUS = now
	}
	if name != "" {
		c.hsPhases = append(c.hsPhases, hsPhase{name: name, startUS: now, endUS: -1})
	}
	c.trMu.Unlock()
}

// SetTraceParent attaches sp as the span under which this connection's
// handshake-phase and record-batch spans are recorded (nil detaches).
// Call it before the handshake and the phases flush when the handshake
// returns; call it after (the gateway, once the client's trace context
// arrives on the wire) and the buffered phases flush immediately.
func (c *Conn) SetTraceParent(sp *obs.DSpan) {
	c.tparent.Store(sp)
	if sp != nil && (c.hsDone.Load() || c.hsErrSet()) {
		c.flushHandshakeTrace(sp)
	}
}

// hsErrSet reports whether the handshake already failed terminally.
func (c *Conn) hsErrSet() bool {
	c.hsMu.Lock()
	defer c.hsMu.Unlock()
	return c.hsErr != nil
}

// flushHandshakeTrace replays the buffered phase log as spans under
// parent: one handshake_<role> child spanning the phases, one leaf per
// phase (hello, key_exchange, finished). Idempotent — the first caller
// with a non-nil parent wins.
func (c *Conn) flushHandshakeTrace(parent *obs.DSpan) {
	if parent == nil {
		return
	}
	c.trMu.Lock()
	phases := c.hsPhases
	done := c.trFlushed
	c.trFlushed = true
	c.trMu.Unlock()
	if done || len(phases) == 0 {
		return
	}
	start := phases[0].startUS
	end := start
	for _, p := range phases {
		if p.endUS > end {
			end = p.endUS
		}
	}
	role := "server"
	if c.isClient {
		role = "client"
	}
	hs := parent.ChildAt("wtls", "handshake_"+role, start)
	for _, p := range phases {
		pe := p.endUS
		if pe < p.startUS {
			pe = p.startUS
		}
		hs.Event("wtls", p.name, p.startUS, pe-p.startUS, 0)
	}
	hs.EndAt(end)
}
