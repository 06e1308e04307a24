package overlay

import (
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"strconv"
	"unicode/utf8"

	"rasc.dev/rasc/internal/transport"
)

// An envelope travels as a transport.Body: in simulation the receiver gets
// the sender's copy by reference, billed at WireLen, and a socket transport
// serializes it with AppendWire. Both reproduce json.Marshal(envelope)
// byte for byte (HTML-safe string escaping, omitempty, hex IDs, base64
// bodies), so the bytes a socket carries and the size the simulator bills
// are those of the JSON envelope that receivers on sockets decode.

var _ transport.Body = (*envelope)(nil)

// envelopeMessage wraps env for the transport. The heap copy is what the
// receiver is handed; its slices are clipped to their length so a receiver
// that appends to them reallocates instead of writing into the sender's
// spare capacity. An envelope whose strings are not valid UTF-8 would not
// survive a JSON round trip unchanged (encoding/json substitutes U+FFFD),
// so it is serialized here and receivers decode what a socket would carry.
func envelopeMessage(env envelope) transport.Message {
	env.Body = env.Body[:len(env.Body):len(env.Body)]
	env.Nodes = env.Nodes[:len(env.Nodes):len(env.Nodes)]
	msg := transport.Message{Type: msgType, Body: &env}
	if !env.validUTF8() {
		msg = msg.Materialize()
	}
	return msg
}

// decodeEnvelope returns the envelope a message carries: a copy of a
// by-reference body, or the JSON decoding of a socket payload.
func decodeEnvelope(msg transport.Message) (envelope, bool) {
	if p, ok := msg.Body.(*envelope); ok {
		return *p, true
	}
	var env envelope
	if err := json.Unmarshal(msg.Payload, &env); err != nil {
		return envelope{}, false
	}
	return env, true
}

func (e *envelope) validUTF8() bool {
	if !utf8.ValidString(e.Kind) || !utf8.ValidString(e.App) || !utf8.ValidString(e.Err) ||
		!e.Src.validUTF8() || !e.Joiner.validUTF8() {
		return false
	}
	for i := range e.Nodes {
		if !e.Nodes[i].validUTF8() {
			return false
		}
	}
	return true
}

func (i *NodeInfo) validUTF8() bool {
	return utf8.ValidString(string(i.Addr)) && utf8.ValidString(i.Cluster)
}

// idJSONLen is the encoded length of an ID: 32 hex digits in quotes.
const idJSONLen = 2 + 2*IDBytes

// WireLen returns len(json.Marshal(e)) without encoding it.
func (e *envelope) WireLen() int {
	n := len(`{"k":`) + jsonStringLen(e.Kind)
	if e.App != "" {
		n += len(`,"a":`) + jsonStringLen(e.App)
	}
	n += len(`,"key":`) + idJSONLen
	n += len(`,"src":`) + e.Src.jsonLen()
	if e.Hops != 0 {
		n += len(`,"h":`) + intLen(int64(e.Hops))
	}
	if len(e.Body) > 0 {
		n += len(`,"b":`) + 2 + base64.StdEncoding.EncodedLen(len(e.Body))
	}
	if e.ReqID != 0 {
		n += len(`,"r":`) + uintLen(e.ReqID)
	}
	if e.Ack != 0 {
		n += len(`,"ack":`) + uintLen(e.Ack)
	}
	if e.Err != "" {
		n += len(`,"e":`) + jsonStringLen(e.Err)
	}
	if len(e.Nodes) > 0 {
		n += len(`,"n":[]`) + len(e.Nodes) - 1
		for i := range e.Nodes {
			n += e.Nodes[i].jsonLen()
		}
	}
	n += len(`,"j":`) + e.Joiner.jsonLen()
	return n + len(`}`)
}

// AppendWire appends json.Marshal(e) to b.
func (e *envelope) AppendWire(b []byte) []byte {
	b = append(b, `{"k":`...)
	b = appendJSONString(b, e.Kind)
	if e.App != "" {
		b = append(b, `,"a":`...)
		b = appendJSONString(b, e.App)
	}
	b = append(b, `,"key":`...)
	b = appendIDJSON(b, e.Key)
	b = append(b, `,"src":`...)
	b = e.Src.appendJSON(b)
	if e.Hops != 0 {
		b = append(b, `,"h":`...)
		b = strconv.AppendInt(b, int64(e.Hops), 10)
	}
	if len(e.Body) > 0 {
		b = append(b, `,"b":"`...)
		b = base64.StdEncoding.AppendEncode(b, e.Body)
		b = append(b, '"')
	}
	if e.ReqID != 0 {
		b = append(b, `,"r":`...)
		b = strconv.AppendUint(b, e.ReqID, 10)
	}
	if e.Ack != 0 {
		b = append(b, `,"ack":`...)
		b = strconv.AppendUint(b, e.Ack, 10)
	}
	if e.Err != "" {
		b = append(b, `,"e":`...)
		b = appendJSONString(b, e.Err)
	}
	if len(e.Nodes) > 0 {
		b = append(b, `,"n":[`...)
		for i := range e.Nodes {
			if i > 0 {
				b = append(b, ',')
			}
			b = e.Nodes[i].appendJSON(b)
		}
		b = append(b, ']')
	}
	b = append(b, `,"j":`...)
	b = e.Joiner.appendJSON(b)
	return append(b, '}')
}

func (i *NodeInfo) jsonLen() int {
	n := len(`{"id":`) + idJSONLen + len(`,"addr":`) + jsonStringLen(string(i.Addr))
	if i.Cluster != "" {
		n += len(`,"cluster":`) + jsonStringLen(i.Cluster)
	}
	return n + len(`}`)
}

func (i *NodeInfo) appendJSON(b []byte) []byte {
	b = append(b, `{"id":`...)
	b = appendIDJSON(b, i.ID)
	b = append(b, `,"addr":`...)
	b = appendJSONString(b, string(i.Addr))
	if i.Cluster != "" {
		b = append(b, `,"cluster":`...)
		b = appendJSONString(b, i.Cluster)
	}
	return append(b, '}')
}

func appendIDJSON(b []byte, id ID) []byte {
	b = append(b, '"')
	b = hex.AppendEncode(b, id[:])
	return append(b, '"')
}

func intLen(v int64) int {
	if v < 0 {
		// -v overflows for MinInt64, whose digits uintLen still counts
		// correctly as an unsigned value.
		return 1 + uintLen(uint64(-v))
	}
	return uintLen(uint64(v))
}

func uintLen(v uint64) int {
	n := 1
	for v >= 10 {
		v /= 10
		n++
	}
	return n
}

// htmlSafe reports whether encoding/json writes ASCII byte c unescaped.
func htmlSafe(c byte) bool {
	return c >= 0x20 && c < utf8.RuneSelf && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// jsonStringLen is the length of encoding/json's encoding of s, quotes
// included.
func jsonStringLen(s string) int {
	n := 2
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			switch {
			case htmlSafe(c):
				n++
			case c == '"' || c == '\\' || c == '\b' || c == '\f' || c == '\n' || c == '\r' || c == '\t':
				n += 2
			default:
				n += len(`\u00XX`)
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if (r == utf8.RuneError && size == 1) || r == '\u2028' || r == '\u2029' {
			n += len(`\uXXXX`)
		} else {
			n += size
		}
		i += size
	}
	return n
}

// appendJSONString appends s as encoding/json encodes it.
func appendJSONString(b []byte, s string) []byte {
	const hexDigits = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if htmlSafe(c) {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		} else if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		} else {
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
