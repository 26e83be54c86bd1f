package journal

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// AppendJSON appends the canonical one-line JSON encoding of e to dst:
//
//	{"t_sim":3,"level":"warn","layer":"wep","event":"icv_failure","kv":{"frame_bytes":24}}
//
// Key order is fixed (t_sim, level, layer, event, kv) and kv preserves
// field order, so encoding is deterministic. ParseLine inverts it.
func AppendJSON(dst []byte, e Event) []byte {
	dst = append(dst, `{"t_sim":`...)
	dst = strconv.AppendInt(dst, e.TSim, 10)
	dst = append(dst, `,"level":"`...)
	dst = append(dst, e.Level.String()...)
	dst = append(dst, `","layer":`...)
	dst = appendJSONString(dst, e.Layer)
	dst = append(dst, `,"event":`...)
	dst = appendJSONString(dst, e.Name)
	if len(e.Fields) > 0 {
		dst = append(dst, `,"kv":{`...)
		for i, f := range e.Fields {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONString(dst, f.K)
			dst = append(dst, ':')
			switch f.kind {
			case kindString:
				dst = appendJSONString(dst, f.s)
			case kindInt:
				dst = strconv.AppendInt(dst, f.i, 10)
			case kindFloat:
				switch {
				case math.IsNaN(f.f):
					dst = append(dst, `"NaN"`...)
				case math.IsInf(f.f, 1):
					dst = append(dst, `"+Inf"`...)
				case math.IsInf(f.f, -1):
					dst = append(dst, `"-Inf"`...)
				default:
					dst = strconv.AppendFloat(dst, f.f, 'g', -1, 64)
				}
			case kindBool:
				if f.i != 0 {
					dst = append(dst, "true"...)
				} else {
					dst = append(dst, "false"...)
				}
			}
		}
		dst = append(dst, '}')
	}
	return append(dst, '}')
}

// appendJSONString appends s as a JSON string. encoding/json produces
// canonical escaping (and sanitizes invalid UTF-8), which keeps
// encode→parse→encode stable for the fuzz round trip.
func appendJSONString(dst []byte, s string) []byte {
	b, err := json.Marshal(s)
	if err != nil { // cannot happen for string input
		return append(dst, `""`...)
	}
	return append(dst, b...)
}

// ParseLine decodes one JSONL line produced by AppendJSON. Unknown keys,
// nested kv values, and malformed levels are errors. Events returned by
// ParseLine have a zero merge seq; they are for tooling that reads a
// journal file back, not for re-injection into a live journal.
func ParseLine(line []byte) (Event, error) {
	var e Event
	dec := json.NewDecoder(strings.NewReader(string(line)))
	dec.UseNumber()
	if err := expectDelim(dec, '{'); err != nil {
		return e, err
	}
	var sawT, sawLevel, sawLayer, sawEvent bool
	for dec.More() {
		key, err := expectString(dec)
		if err != nil {
			return e, err
		}
		switch key {
		case "t_sim":
			n, err := expectNumber(dec)
			if err != nil {
				return e, err
			}
			v, err := n.Int64()
			if err != nil {
				return e, fmt.Errorf("journal: t_sim: %w", err)
			}
			e.TSim, sawT = v, true
		case "level":
			s, err := expectString(dec)
			if err != nil {
				return e, err
			}
			lv, err := ParseLevel(s)
			if err != nil {
				return e, err
			}
			e.Level, sawLevel = lv, true
		case "layer":
			if e.Layer, err = expectString(dec); err != nil {
				return e, err
			}
			sawLayer = true
		case "event":
			if e.Name, err = expectString(dec); err != nil {
				return e, err
			}
			sawEvent = true
		case "kv":
			if err := expectDelim(dec, '{'); err != nil {
				return e, err
			}
			for dec.More() {
				k, err := expectString(dec)
				if err != nil {
					return e, err
				}
				f, err := parseFieldValue(dec, k)
				if err != nil {
					return e, err
				}
				e.Fields = append(e.Fields, f)
			}
			if err := expectDelim(dec, '}'); err != nil {
				return e, err
			}
		default:
			return e, fmt.Errorf("journal: unknown key %q", key)
		}
	}
	if err := expectDelim(dec, '}'); err != nil {
		return e, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return e, fmt.Errorf("journal: trailing data after event")
	}
	if !sawT || !sawLevel || !sawLayer || !sawEvent {
		return e, fmt.Errorf("journal: missing required key (t_sim/level/layer/event)")
	}
	return e, nil
}

// parseFieldValue decodes one kv value token into a Field.
func parseFieldValue(dec *json.Decoder, key string) (Field, error) {
	tok, err := dec.Token()
	if err != nil {
		return Field{}, fmt.Errorf("journal: kv %q: %w", key, err)
	}
	switch v := tok.(type) {
	case string:
		return S(key, v), nil
	case bool:
		return B(key, v), nil
	case json.Number:
		s := v.String()
		if !strings.ContainsAny(s, ".eE") {
			if i, err := v.Int64(); err == nil {
				return I(key, i), nil
			}
		}
		f, err := v.Float64()
		if err != nil {
			return Field{}, fmt.Errorf("journal: kv %q: %w", key, err)
		}
		return F(key, f), nil
	default:
		return Field{}, fmt.Errorf("journal: kv %q: unsupported value %v", key, tok)
	}
}

func expectDelim(dec *json.Decoder, d json.Delim) error {
	tok, err := dec.Token()
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if got, ok := tok.(json.Delim); !ok || got != d {
		return fmt.Errorf("journal: expected %q, got %v", d, tok)
	}
	return nil
}

func expectString(dec *json.Decoder) (string, error) {
	tok, err := dec.Token()
	if err != nil {
		return "", fmt.Errorf("journal: %w", err)
	}
	s, ok := tok.(string)
	if !ok {
		return "", fmt.Errorf("journal: expected string, got %v", tok)
	}
	return s, nil
}

func expectNumber(dec *json.Decoder) (json.Number, error) {
	tok, err := dec.Token()
	if err != nil {
		return "", fmt.Errorf("journal: %w", err)
	}
	n, ok := tok.(json.Number)
	if !ok {
		return "", fmt.Errorf("journal: expected number, got %v", tok)
	}
	return n, nil
}

// Read decodes a JSONL stream, returning the events it could parse and
// the number of malformed lines skipped (blank lines are ignored).
func Read(r io.Reader) ([]Event, int, error) {
	var (
		events  []Event
		skipped int
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		e, err := ParseLine([]byte(line))
		if err != nil {
			skipped++
			continue
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return events, skipped, fmt.Errorf("journal: %w", err)
	}
	return events, skipped, nil
}

// LoadFile reads a JSONL journal file written by WriteJSONL.
func LoadFile(path string) ([]Event, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	return Read(f)
}

// Get returns the value of the named field as a string, or "" if absent
// — a convenience for report/watch tooling.
func (e Event) Get(key string) string {
	for _, f := range e.Fields {
		if f.K != key {
			continue
		}
		switch f.kind {
		case kindString:
			return f.s
		case kindInt:
			return strconv.FormatInt(f.i, 10)
		case kindFloat:
			return strconv.FormatFloat(f.f, 'g', -1, 64)
		case kindBool:
			if f.i != 0 {
				return "true"
			}
			return "false"
		}
	}
	return ""
}

// GetFloat returns the named field as a float64 (ints convert), with ok
// reporting whether the field exists and is numeric.
func (e Event) GetFloat(key string) (float64, bool) {
	for _, f := range e.Fields {
		if f.K != key {
			continue
		}
		switch f.kind {
		case kindInt:
			return float64(f.i), true
		case kindFloat:
			return f.f, true
		}
		return 0, false
	}
	return 0, false
}
