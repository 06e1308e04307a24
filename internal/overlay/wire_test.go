package overlay

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"rasc.dev/rasc/internal/transport"
)

// fuzzEnvelope builds an envelope whose every field comes from the fuzzer.
func fuzzEnvelope(kind, app, errStr, addr, cluster string, body []byte, hops int, reqID, ack uint64, nodes uint8) envelope {
	ni := func(i int) NodeInfo {
		return NodeInfo{ID: HashID(addr + string(rune(i))), Addr: transport.Addr(addr), Cluster: cluster}
	}
	env := envelope{
		Kind: kind, App: app, Key: HashID(kind), Src: ni(-1), Hops: hops, Body: body,
		ReqID: reqID, Ack: ack, Err: errStr, Joiner: ni(-2),
	}
	if nodes%2 == 1 {
		env.Joiner = NodeInfo{} // the zero Joiner most messages carry
	}
	for i := 0; i < int(nodes%5); i++ {
		env.Nodes = append(env.Nodes, ni(i))
	}
	return env
}

// FuzzEnvelopeWireLen pins the by-reference envelope to encoding/json:
// WireLen is the marshalled length and AppendWire the marshalled bytes, so
// the simulator bills and the sockets carry exactly the JSON envelope. For
// envelopes that take the by-reference path, the receiver's copy must equal
// what decoding those bytes gives.
func FuzzEnvelopeWireLen(f *testing.F) {
	f.Add("route", "stream-data", "", "sim://12", "", []byte(`{"req":"r1"}`), 3, uint64(0), uint64(7), uint8(0))
	f.Add("resp", "", "overlay: no handler <&>", "127.0.0.1:4000", "c0", []byte{}, 0, uint64(1<<63), uint64(0), uint8(3))
	f.Add("k\"\\\b\f\n\r\t\x01\x7f", "  é", "\xff\xfe", "a\xc3", "é", []byte{0, 1, 2}, -5, uint64(9), uint64(10), uint8(4))
	f.Fuzz(func(t *testing.T, kind, app, errStr, addr, cluster string, body []byte, hops int, reqID, ack uint64, nodes uint8) {
		env := fuzzEnvelope(kind, app, errStr, addr, cluster, body, hops, reqID, ack, nodes)
		want, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		if got := env.WireLen(); got != len(want) {
			t.Fatalf("WireLen = %d, json.Marshal length %d\n%s", got, len(want), want)
		}
		if got := env.AppendWire([]byte("prefix")); !bytes.Equal(got[len("prefix"):], want) {
			t.Fatalf("AppendWire:\n got %s\nwant %s", got[len("prefix"):], want)
		}
		msg := envelopeMessage(env)
		if msg.WireSize() != msg.Materialize().WireSize() {
			t.Fatalf("billed %d bytes by reference, %d serialized", msg.WireSize(), msg.Materialize().WireSize())
		}
		if msg.Body == nil {
			if env.validUTF8() {
				t.Fatal("valid UTF-8 envelope took the bytes path")
			}
			return
		}
		byRef, ok1 := decodeEnvelope(msg)
		bySocket, ok2 := decodeEnvelope(transport.Message{Type: msgType, Payload: want})
		if !ok1 || !ok2 {
			t.Fatalf("decode failed: by reference %v, from bytes %v", ok1, ok2)
		}
		normalize := func(e *envelope) {
			if len(e.Body) == 0 {
				e.Body = nil
			}
			if len(e.Nodes) == 0 {
				e.Nodes = nil
			}
		}
		normalize(&byRef)
		normalize(&bySocket)
		if !reflect.DeepEqual(byRef, bySocket) {
			t.Fatalf("receivers differ:\nby reference %+v\nfrom bytes   %+v", byRef, bySocket)
		}
	})
}

// FuzzParseDataEnvelope feeds arbitrary bytes to the binary data envelope
// decoder, which reads socket input: it must never panic, and whatever it
// accepts must re-encode to the same bytes.
func FuzzParseDataEnvelope(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 'a', 'p', 'p', 2, 'h', 'p'})
	f.Add(append([]byte{1, 'x', 1, 'y'}, make([]byte, IDBytes+3)...))
	f.Fuzz(func(t *testing.T, b []byte) {
		app, src, body, ok := parseDataEnvelope(b)
		if !ok {
			return
		}
		back := []byte{byte(len(app))}
		back = append(back, app...)
		back = append(back, byte(len(src.Addr)))
		back = append(back, src.Addr...)
		back = append(back, src.ID[:]...)
		back = append(back, body...)
		if !bytes.Equal(back, b) {
			t.Fatalf("re-encoded %x, input %x", back, b)
		}
	})
}
