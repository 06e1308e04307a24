package transport

import (
	"fmt"

	"rasc.dev/rasc/internal/netsim"
)

// MemNetwork binds transport endpoints to simulator network nodes. All
// message sends become simulated transmissions that consume link bandwidth
// and experience latency, jitter and loss according to the netsim
// configuration. Messages travel by value, so a Body reaches the receiver
// by reference, unserialized, billed at its WireLen.
type MemNetwork struct {
	nw     *netsim.Network
	byAddr map[Addr]*memEndpoint
}

// NewMemNetwork wraps a simulated network.
func NewMemNetwork(nw *netsim.Network) *MemNetwork {
	return &MemNetwork{nw: nw, byAddr: make(map[Addr]*memEndpoint)}
}

// MemAddr returns the canonical address for simulator node id.
func MemAddr(id netsim.NodeID) Addr { return Addr(fmt.Sprintf("sim://%d", id)) }

// Endpoint binds an endpoint to the simulator node id. Binding the same
// node twice replaces the previous endpoint.
func (m *MemNetwork) Endpoint(id netsim.NodeID) Endpoint {
	ep := &memEndpoint{net: m, node: id, addr: MemAddr(id)}
	m.byAddr[ep.addr] = ep
	m.nw.SetHandler(id, func(from netsim.NodeID, size int, payload interface{}) {
		env, ok := payload.(memEnvelope)
		if !ok || ep.closed || ep.handler == nil {
			return
		}
		telMemIn.Inc()
		telMemInBytes.Add(uint64(size))
		ep.handler(env.from, env.msg)
	})
	m.nw.SetDropHandler(id, func(from netsim.NodeID, size int, payload interface{}) {
		env, ok := payload.(memEnvelope)
		if !ok || ep.closed || ep.dropHandler == nil {
			return
		}
		ep.dropHandler(env.from, env.msg)
	})
	return ep
}

type memEnvelope struct {
	from Addr
	msg  Message
}

type memEndpoint struct {
	net         *MemNetwork
	node        netsim.NodeID
	addr        Addr
	handler     Handler
	dropHandler Handler
	closed      bool
}

func (e *memEndpoint) Addr() Addr               { return e.addr }
func (e *memEndpoint) SetHandler(h Handler)     { e.handler = h }
func (e *memEndpoint) SetDropHandler(h Handler) { e.dropHandler = h }

func (e *memEndpoint) Send(to Addr, msg Message) error {
	if e.closed {
		return ErrClosed
	}
	dst, ok := e.net.byAddr[to]
	if !ok {
		telMemSendFails.Inc()
		return fmt.Errorf("%w: %s", ErrUnknownAddr, to)
	}
	env := memEnvelope{from: e.addr, msg: msg}
	size := msg.WireSize()
	if msg.Datagram {
		if !e.net.nw.SendDroppable(e.node, dst.node, size, env) {
			return ErrBacklog
		}
	} else {
		e.net.nw.Send(e.node, dst.node, size, env)
	}
	telMemOut.Inc()
	telMemOutBytes.Add(uint64(size))
	return nil
}

func (e *memEndpoint) Close() error {
	e.closed = true
	delete(e.net.byAddr, e.addr)
	return nil
}
