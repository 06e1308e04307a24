package transport

import (
	"bytes"
	"sync"
	"testing"
)

// textBody is a by-reference body whose wire form is its text.
type textBody struct{ s string }

func (b *textBody) WireLen() int                 { return len(b.s) }
func (b *textBody) AppendWire(dst []byte) []byte { return append(dst, b.s...) }

func TestBodyBilledAtWireLen(t *testing.T) {
	body := &textBody{"by reference"}
	byRef := Message{Type: "t", Body: body, Pad: 9}
	bytesMsg := Message{Type: "t", Payload: []byte(body.s), Pad: 9}
	if byRef.WireSize() != bytesMsg.WireSize() {
		t.Fatalf("WireSize %d by reference, %d as bytes", byRef.WireSize(), bytesMsg.WireSize())
	}
	m := byRef.Materialize()
	if m.Body != nil || string(m.Payload) != body.s || cap(m.Payload) != len(body.s) || m.Pad != 9 {
		t.Fatalf("Materialize = %+v", m)
	}
	if plain := bytesMsg.Materialize(); &plain.Payload[0] != &bytesMsg.Payload[0] {
		t.Fatal("Materialize copied a message without a Body")
	}
}

func TestMemDeliversBodyByReference(t *testing.T) {
	sim, _, eps := newTestNet(t, 2)
	body := &textBody{"hello"}
	var got Message
	eps[1].SetHandler(func(_ Addr, msg Message) { got = msg })
	if err := eps[0].Send(eps[1].Addr(), Message{Type: "x", Body: body}); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if got.Body != body || got.Payload != nil {
		t.Fatalf("received %+v, want the sender's body by reference", got)
	}
}

// TestSocketsMaterializeBody sends a by-reference body over TCP, the
// resilient pipeline and the UDP datagram path: each must carry the
// serialized bytes, as a receiver on the other side of a socket expects.
func TestSocketsMaterializeBody(t *testing.T) {
	a, b := newTCPPair(t)
	ha, err := NewHybrid("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hb, err := NewHybrid("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := NewResilient(a, ResilientConfig{})
	t.Cleanup(func() { r.Close(); ha.Close(); hb.Close() })

	var mu sync.Mutex
	got := map[string]Message{}
	record := func(_ Addr, msg Message) {
		mu.Lock()
		defer mu.Unlock()
		got[msg.Type] = msg
	}
	b.SetHandler(record)
	hb.SetHandler(record)
	sends := []struct {
		ep  Endpoint
		to  Addr
		msg Message
	}{
		{a, b.Addr(), Message{Type: "tcp", Body: &textBody{"over tcp"}}},
		{r, b.Addr(), Message{Type: "resilient", Body: &textBody{"queued"}}},
		{ha, hb.Addr(), Message{Type: "udp", Body: &textBody{"datagram"}, Datagram: true}},
	}
	for _, s := range sends {
		if err := s.ep.Send(s.to, s.msg); err != nil {
			t.Fatalf("%s: %v", s.msg.Type, err)
		}
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == len(sends)
	})
	for _, s := range sends {
		m := got[s.msg.Type]
		if m.Body != nil || !bytes.Equal(m.Payload, s.msg.Body.AppendWire(nil)) {
			t.Fatalf("%s: received %+v", s.msg.Type, m)
		}
	}
}

// FuzzReadMessage feeds arbitrary bytes to the binary message decoder,
// which reads socket input: it must never panic, and a message it accepts
// must survive re-encoding (unknown flag bits aside) at the length it
// consumed.
func FuzzReadMessage(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendMessage(nil, Message{Type: "ping", Payload: []byte("x"), Pad: 3, Datagram: true}))
	f.Add([]byte{0, 1, 'a', 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		msg, rest, err := readMessage(b)
		if err != nil {
			return
		}
		back := appendMessage(nil, msg)
		again, _, err := readMessage(back)
		if err != nil || len(back) != len(b)-len(rest) || !sameMessage(again, msg) {
			t.Fatalf("decoded %+v, re-decoded %+v (%v)", msg, again, err)
		}
	})
}

func sameMessage(a, b Message) bool {
	return a.Type == b.Type && bytes.Equal(a.Payload, b.Payload) && a.Pad == b.Pad && a.Datagram == b.Datagram
}

// FuzzReadTCPFrame feeds arbitrary frame bodies to the TCP frame decoder.
func FuzzReadTCPFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendTCPFrame(nil, "127.0.0.1:1", Message{Type: "t", Payload: []byte("p")}))
	f.Fuzz(func(t *testing.T, b []byte) {
		from, msg, err := readTCPFrame(b)
		if err != nil {
			return
		}
		back := appendTCPFrame(nil, from, msg)
		from2, again, err := readTCPFrame(back)
		if err != nil || len(back) != len(b) || from2 != from || !sameMessage(again, msg) {
			t.Fatalf("decoded %s %+v, re-decoded %s %+v (%v)", from, msg, from2, again, err)
		}
	})
}

// FuzzReadBatch feeds arbitrary batch envelopes to the batch decoder: it
// must never panic, and the messages it delivers must decode the same way
// again once re-packed (a truncated tail is dropped).
func FuzzReadBatch(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendBatch(nil, []queuedMsg{{msg: Message{Type: "a"}}, {msg: Message{Type: "b", Payload: []byte("x")}}}))
	f.Fuzz(func(t *testing.T, b []byte) {
		var first, second []Message
		readBatch(b, func(m Message) { first = append(first, m) })
		var back []byte
		for _, m := range first {
			back = appendMessage(back, m)
		}
		if len(back) > len(b) {
			t.Fatalf("re-packed %d bytes from a %d-byte envelope", len(back), len(b))
		}
		readBatch(back, func(m Message) { second = append(second, m) })
		if len(second) != len(first) {
			t.Fatalf("re-packed batch gave %d messages, want %d", len(second), len(first))
		}
		for i := range first {
			if !sameMessage(first[i], second[i]) {
				t.Fatalf("message %d: %+v, re-decoded %+v", i, first[i], second[i])
			}
		}
	})
}
