// Package transport defines the message-passing abstraction the overlay and
// stream runtime are written against, with two implementations: an
// in-process transport bound to the network simulator (package mem semantics
// live here) and a TCP transport over real sockets (tcptransport.go).
package transport

import "errors"

// Addr identifies an endpoint. The in-memory transport uses "sim://<n>";
// the TCP transport uses "host:port".
type Addr string

// Message is the unit of exchange. Type routes the message to a protocol
// handler at the receiver; Payload is an opaque encoded body. Pad declares
// additional bytes of application data that the message stands for (stream
// data units carry a Pad instead of their literal bytes so the simulator
// charges their true size without encoding megabytes of padding).
//
// Body, when set, replaces Payload with a body carried by reference: the
// in-process transport delivers it as is and bills its WireLen, and socket
// transports serialize it once (Materialize) before framing. A message sets
// at most one of Payload and Body; a receiver must not modify a Body it was
// handed, since duplicated deliveries share it.
type Message struct {
	Type    string `json:"t"`
	Payload []byte `json:"p,omitempty"`
	Body    Body   `json:"-"`
	Pad     int    `json:"pad,omitempty"`
	// Datagram marks the message as loss-tolerant (UDP-like): it may be
	// dropped under link congestion, and the receiver may be told about
	// drops at its own downlink. Control traffic leaves this false and
	// is delivered reliably (TCP-like), only ever delayed.
	Datagram bool `json:"dg,omitempty"`
}

// WireSize estimates the on-the-wire size of the message in bytes,
// including a fixed per-message header allowance. The simulator charges
// this size against link bandwidth.
func (m Message) WireSize() int {
	const headerOverhead = 48 // framing + type tag + addressing
	n := len(m.Payload)
	if m.Body != nil {
		n = m.Body.WireLen()
	}
	return headerOverhead + len(m.Type) + n + m.Pad
}

// Body is a message body carried by reference until it reaches a socket.
type Body interface {
	// WireLen is the exact length of the serialized body.
	WireLen() int
	// AppendWire appends the serialized body to b.
	AppendWire(b []byte) []byte
}

// Materialize returns m with its Body serialized into Payload in one
// allocation; a message without a Body is returned unchanged.
func (m Message) Materialize() Message {
	if m.Body == nil {
		return m
	}
	m.Payload = m.Body.AppendWire(make([]byte, 0, m.Body.WireLen()))
	m.Body = nil
	return m
}

// Handler processes an inbound message.
type Handler func(from Addr, msg Message)

// Endpoint is a bound transport endpoint.
type Endpoint interface {
	// Addr returns the endpoint's own address.
	Addr() Addr
	// Send transmits msg to the destination. Delivery is best-effort;
	// an error reports only local/immediate failures (for datagrams,
	// that includes a full uplink buffer).
	Send(to Addr, msg Message) error
	// SetHandler installs the inbound message handler. It must be set
	// before the first message can be delivered.
	SetHandler(h Handler)
	// SetDropHandler installs a handler for datagrams dropped at this
	// endpoint's own downlink (receive-buffer overflow). Transports
	// that cannot observe such drops never call it.
	SetDropHandler(h Handler)
	// Close releases the endpoint. Subsequent Sends fail.
	Close() error
}

// ErrClosed is returned by Send on a closed endpoint.
var ErrClosed = errors.New("transport: endpoint closed")

// ErrUnknownAddr is returned when the destination address cannot be
// resolved.
var ErrUnknownAddr = errors.New("transport: unknown address")

// ErrBacklog is returned by Send when the local uplink's buffer is full
// and the message was dropped.
var ErrBacklog = errors.New("transport: uplink backlog full")
