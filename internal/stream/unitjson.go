package stream

import (
	"bytes"
	"encoding/json"
	"strconv"
	"time"
)

// The per-unit data path carries each dataMsg as JSON, and the simulator
// bills that length (the unit's padding makes up the rest of its size).
// marshalDataMsg and parseDataMsg produce and read the same bytes as
// encoding/json without its reflection: a request ID of printable ASCII
// without quotes, backslashes or HTML characters is written directly, and
// the canonical form written here is read back directly. Everything else
// goes through encoding/json.

// marshalDataMsg returns json.Marshal(m) in one allocation.
func marshalDataMsg(m *dataMsg) []byte {
	for i := 0; i < len(m.Req); i++ {
		if c := m.Req[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(m) // a dataMsg always marshals
			return b
		}
	}
	var stack [160]byte
	b := append(stack[:0], `{"req":"`...)
	b = append(b, m.Req...)
	b = append(b, `","sub":`...)
	b = strconv.AppendInt(b, int64(m.Substream), 10)
	b = append(b, `,"stage":`...)
	b = strconv.AppendInt(b, int64(m.Stage), 10)
	b = append(b, `,"seq":`...)
	b = strconv.AppendInt(b, m.Seq, 10)
	b = append(b, `,"created":`...)
	b = strconv.AppendInt(b, int64(m.Created), 10)
	b = append(b, `,"size":`...)
	b = strconv.AppendInt(b, int64(m.Size), 10)
	b = append(b, '}')
	return bytes.Clone(b)
}

// parseDataMsg decodes b into m as json.Unmarshal would.
func parseDataMsg(b []byte, m *dataMsg) error {
	if c, ok := parseCanonicalDataMsg(b); ok {
		*m = c
		return nil
	}
	return json.Unmarshal(b, m)
}

// parseCanonicalDataMsg reads exactly the form marshalDataMsg writes for a
// plain request ID; ok is false for any other input.
func parseCanonicalDataMsg(b []byte) (m dataMsg, ok bool) {
	if b, ok = bytes.CutPrefix(b, []byte(`{"req":"`)); !ok {
		return m, false
	}
	end := bytes.IndexByte(b, '"')
	if end < 0 {
		return m, false
	}
	for _, c := range b[:end] {
		// Raw bytes json.Unmarshal keeps as they are.
		if c < 0x20 || c >= 0x80 || c == '\\' {
			return m, false
		}
	}
	m.Req = string(b[:end])
	b = b[end+1:]
	var sub, stage, seq, created, size int64
	if b, ok = parseJSONField(b, `,"sub":`, &sub); !ok {
		return m, false
	}
	if b, ok = parseJSONField(b, `,"stage":`, &stage); !ok {
		return m, false
	}
	if b, ok = parseJSONField(b, `,"seq":`, &seq); !ok {
		return m, false
	}
	if b, ok = parseJSONField(b, `,"created":`, &created); !ok {
		return m, false
	}
	if b, ok = parseJSONField(b, `,"size":`, &size); !ok {
		return m, false
	}
	if len(b) != 1 || b[0] != '}' {
		return m, false
	}
	m.Substream, m.Stage, m.Size = int(sub), int(stage), int(size)
	if int64(m.Substream) != sub || int64(m.Stage) != stage || int64(m.Size) != size {
		return m, false // overflows int: let encoding/json report it
	}
	m.Seq, m.Created = seq, time.Duration(created)
	return m, true
}

// parseJSONField reads key followed by a JSON integer of at most 18 digits
// (so it cannot overflow) and returns the rest of b.
func parseJSONField(b []byte, key string, v *int64) ([]byte, bool) {
	b, ok := bytes.CutPrefix(b, []byte(key))
	if !ok {
		return nil, false
	}
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	n := 0
	for n < len(b) && b[n] >= '0' && b[n] <= '9' {
		n++
	}
	if n == 0 || n > 18 || (n > 1 && b[0] == '0') {
		return nil, false
	}
	var x int64
	for _, c := range b[:n] {
		x = x*10 + int64(c-'0')
	}
	if neg {
		x = -x
	}
	*v = x
	return b[n:], true
}
