// Package journal is the repository's structured event log: the *live*
// counterpart of the metrics registry. Where a metric snapshot says how
// often something happened, the journal says *when and with what* — one
// record per security-relevant event (a WTLS alert, a WEP ICV failure,
// an ARQ link-down, a battery milestone, a fired SLO rule), with a fixed
// schema {t_sim, level, layer, event, kv...} serialized as JSONL.
//
// Design constraints, matching the rest of internal/obs:
//
//  1. Disarmed must be almost free. Emit on a disarmed journal is one
//     atomic load and a branch — no allocation, no lock, no clock —
//     enforced by test and benchmark. Figure outputs are unaffected
//     unless a cmd opts in with -journal.
//  2. Armed must be deterministic. Events carry t_sim, a figure-defined
//     model-step marker (grid-cell index, BER-point index, transaction
//     count...), not a wall clock. Events land in lock-striped buffers
//     and are merged into (t_sim, seq) order at export, where seq is a
//     process-global emission counter that is never serialized. Within
//     one goroutine seq is monotonic, and parallel sweep tasks tag their
//     events with distinct t_sim values, so the merged JSONL is
//     byte-identical at any -workers count for a deterministic workload.
//  3. No dependencies beyond the standard library; the decoder accepts
//     exactly what the encoder produces (fuzz-enforced round trip).
//
// t_sim values < 0 mean "end of run" (SLO summary events) and sort after
// every nonnegative model step.
package journal

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Level is the journal's severity ladder.
type Level uint8

const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelCrit
)

// String returns the serialized level name.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelCrit:
		return "crit"
	}
	return fmt.Sprintf("level(%d)", uint8(l))
}

// ParseLevel parses a serialized level name.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "debug":
		return LevelDebug, nil
	case "info":
		return LevelInfo, nil
	case "warn":
		return LevelWarn, nil
	case "crit":
		return LevelCrit, nil
	}
	return 0, fmt.Errorf("journal: unknown level %q", s)
}

// Field kinds.
const (
	kindString = iota
	kindInt
	kindFloat
	kindBool
)

// Field is one key-value pair of an event. Construct with S/I/F/B;
// fields are plain values so building them never allocates.
type Field struct {
	K    string
	kind uint8
	s    string
	i    int64
	f    float64
}

// S is a string field.
func S(k, v string) Field { return Field{K: k, kind: kindString, s: v} }

// I is an int64 field.
func I(k string, v int64) Field { return Field{K: k, kind: kindInt, i: v} }

// F is a float64 field. Non-finite values serialize as strings ("NaN",
// "+Inf", "-Inf") since JSON has no representation for them.
func F(k string, v float64) Field { return Field{K: k, kind: kindFloat, f: v} }

// B is a bool field.
func B(k string, v bool) Field {
	f := Field{K: k, kind: kindBool}
	if v {
		f.i = 1
	}
	return f
}

// Event is one journal record.
type Event struct {
	TSim   int64
	Level  Level
	Layer  string
	Name   string
	Fields []Field

	seq uint64 // process-global emission order; merge tiebreak, never serialized
}

// nStripes is the lock stripe count: enough that sweep workers rarely
// contend, small enough that merging stays cheap.
const nStripes = 16

type stripe struct {
	mu     sync.Mutex
	events []Event
}

// Journal is a bounded, leveled, structured event log. The zero value is
// not usable; create with New. A nil *Journal ignores everything.
type Journal struct {
	armed   atomic.Bool
	min     atomic.Int32
	seq     atomic.Uint64
	count   atomic.Int64 // events currently buffered (approximate gate)
	dropped atomic.Int64
	cap     int64

	stripes [nStripes]stripe
}

// DefaultCapacity bounds the default journal's buffer; past it new
// events are dropped (newest-lose) and counted.
const DefaultCapacity = 1 << 18

// New creates a disarmed journal holding at most capacity events
// (minimum 64).
func New(capacity int) *Journal {
	if capacity < 64 {
		capacity = 64
	}
	j := &Journal{cap: int64(capacity)}
	j.min.Store(int32(LevelInfo))
	return j
}

// SetEnabled arms or disarms the journal.
func (j *Journal) SetEnabled(on bool) {
	if j != nil {
		j.armed.Store(on)
	}
}

// SetMinLevel sets the minimum level recorded (default LevelInfo).
func (j *Journal) SetMinLevel(lv Level) {
	if j != nil {
		j.min.Store(int32(lv))
	}
}

// Enabled reports whether the journal is armed.
func (j *Journal) Enabled() bool { return j != nil && j.armed.Load() }

// On reports whether an event at level lv would be recorded — the fast
// gate instrumented layers use before assembling expensive fields.
func (j *Journal) On(lv Level) bool {
	return j != nil && j.armed.Load() && int32(lv) >= j.min.Load()
}

// Emit records one event when the journal is armed and lv clears the
// minimum level. tSim is the model-step marker (see package doc); fields
// are copied, so the caller's slice (usually a stack-allocated variadic)
// is not retained. Safe on a nil journal.
func (j *Journal) Emit(tSim int64, lv Level, layer, event string, fields ...Field) {
	if j == nil || !j.armed.Load() {
		return
	}
	if int32(lv) < j.min.Load() {
		return
	}
	if j.count.Load() >= j.cap {
		j.dropped.Add(1)
		return
	}
	e := Event{TSim: tSim, Level: lv, Layer: layer, Name: event, seq: j.seq.Add(1)}
	if len(fields) > 0 {
		e.Fields = make([]Field, len(fields))
		copy(e.Fields, fields)
	}
	j.count.Add(1)
	s := &j.stripes[e.seq%nStripes]
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

// Dropped reports how many events the capacity bound discarded.
func (j *Journal) Dropped() int64 {
	if j == nil {
		return 0
	}
	return j.dropped.Load()
}

// Len reports how many events are buffered.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	return int(j.count.Load())
}

// Events returns the buffered events merged into deterministic order:
// ascending (t_sim, seq), with negative t_sim (end-of-run records)
// sorted after every nonnegative model step.
func (j *Journal) Events() []Event {
	if j == nil {
		return nil
	}
	var out []Event
	for i := range j.stripes {
		s := &j.stripes[i]
		s.mu.Lock()
		out = append(out, s.events...)
		s.mu.Unlock()
	}
	sort.Slice(out, func(a, b int) bool {
		ta, tb := sortKey(out[a].TSim), sortKey(out[b].TSim)
		if ta != tb {
			return ta < tb
		}
		return out[a].seq < out[b].seq
	})
	return out
}

// sortKey maps negative t_sim ("end of run") past every real model step.
func sortKey(t int64) uint64 {
	if t < 0 {
		return uint64(1<<63) + uint64(-(t + 1))
	}
	return uint64(t)
}

// Reset discards all buffered events and resets the emission counter.
// It is a test and tooling hook; instrumented layers never call it.
func (j *Journal) Reset() {
	if j == nil {
		return
	}
	for i := range j.stripes {
		s := &j.stripes[i]
		s.mu.Lock()
		s.events = nil
		s.mu.Unlock()
	}
	j.count.Store(0)
	j.dropped.Store(0)
	j.seq.Store(0)
}

// WriteJSONL writes the merged events as JSONL (one event per line).
func (j *Journal) WriteJSONL(w io.Writer) error {
	var buf []byte
	for _, e := range j.Events() {
		buf = AppendJSON(buf[:0], e)
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// Default is the process-wide journal the instrumented layers emit to.
// It exists from process start but stays disarmed until a cmd opts in
// with -journal, so hot paths pay only the armed-flag check.
var Default = New(DefaultCapacity)

// On reports whether the default journal records level lv.
func On(lv Level) bool { return Default.On(lv) }

// Emit records one event on the default journal.
func Emit(tSim int64, lv Level, layer, event string, fields ...Field) {
	Default.Emit(tSim, lv, layer, event, fields...)
}

// TEnd is the conventional t_sim for end-of-run records: negative model
// time sorts after every real model step.
const TEnd int64 = -1
