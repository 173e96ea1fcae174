// Package mad is the collect layer of Figure 1: the Madeleine-style
// structured packing API through which applications and middlewares express
// messages and — crucially — the constraints the optimizer must respect.
//
// A message is built fragment by fragment:
//
//	conn := session.Channel("rpc").Connect(peer)
//	msg := conn.BeginPacking()
//	msg.Pack(header, mad.SendCheaper, mad.RecvExpress) // must arrive first
//	msg.Pack(body,   mad.SendCheaper, mad.RecvCheaper) // may be optimized
//	msg.EndPacking()
//
// Send modes state how long the caller's buffer stays valid (safer = copy
// now, later = read at EndPacking, cheaper = library's choice); receive
// modes state when the receiver needs the bytes (express = immediately at
// unpack — headers that gate interpretation; cheaper = any time before the
// message completes). These flags become packet fields that the optimizing
// layer treats as reordering constraints, exactly as §3 of the paper
// describes.
//
// Lifetimes: an *Incoming is an ordinary garbage-collected object, never
// reused by the library — a MessageHandler may keep it and the payload
// bytes it points at. A *packet.Packet handed to a fragment handler is a
// copy valid only for the duration of the callback.
//
// Flow identity: each (channel, source node) pair maps to one flow id, so
// channels must be created in the same order on every node (the usual SPMD
// convention, as with MPI communicators).
package mad

import (
	"fmt"
	"sync"
	"sync/atomic"

	"newmad/internal/core"
	"newmad/internal/packet"
	"newmad/internal/proto"
)

// Re-exported mode constants so middlewares import only mad.
const (
	SendCheaper = packet.SendCheaper
	SendSafer   = packet.SendSafer
	SendLater   = packet.SendLater
	RecvCheaper = packet.RecvCheaper
	RecvExpress = packet.RecvExpress
)

// maxChannels bounds channels per session; flow ids encode the channel
// index in their low bits.
const (
	channelBits = 12
	maxChannels = 1 << channelBits
)

// Session binds a node's optimizer engine to the packing API and routes
// inbound fragments to channels.
type Session struct {
	engine *core.Engine
	node   packet.NodeID

	mu       sync.Mutex // serializes channel creation
	channels map[string]*Channel
	// byIndex is the channel table Dispatch reads without a lock: creation
	// publishes a longer slice and never writes inside a published one.
	byIndex atomic.Pointer[[]*Channel]
}

// NewSession wraps an engine. The engine's Deliver option must already
// point at the session's Dispatch (use Bind to construct both in order).
func NewSession(engine *core.Engine) *Session {
	return &Session{
		engine:   engine,
		node:     engine.Node(),
		channels: make(map[string]*Channel),
	}
}

// Bind is the convenience constructor: it creates the session first, then
// the engine with the session's dispatcher as the Deliver upcall.
//
//	s, err := mad.Bind(node, func(deliver proto.DeliverFunc) (*core.Engine, error) {
//	    opt.Deliver = deliver
//	    return core.New(node, opt)
//	})
func Bind(node packet.NodeID, build func(deliver proto.DeliverFunc) (*core.Engine, error)) (*Session, error) {
	s := &Session{node: node, channels: make(map[string]*Channel)}
	eng, err := build(s.Dispatch)
	if err != nil {
		return nil, err
	}
	if eng.Node() != node {
		return nil, fmt.Errorf("mad: engine node %d != session node %d", eng.Node(), node)
	}
	s.engine = eng
	return s, nil
}

// Engine exposes the underlying optimizer (for RMA and tuning).
func (s *Session) Engine() *core.Engine { return s.engine }

// Node returns the local node id.
func (s *Session) Node() packet.NodeID { return s.node }

// Channel returns the named channel, creating it on first use. Creation
// order must match across nodes.
func (s *Session) Channel(name string) *Channel {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ch, ok := s.channels[name]; ok {
		return ch
	}
	var old []*Channel
	if tab := s.byIndex.Load(); tab != nil {
		old = *tab
	}
	if len(old) >= maxChannels {
		panic(fmt.Sprintf("mad: more than %d channels", maxChannels))
	}
	ch := &Channel{
		session: s,
		name:    name,
		index:   len(old),
		conns:   make(map[packet.NodeID]*Connection),
		inflows: make(map[packet.FlowID]*assembly),
	}
	s.channels[name] = ch
	tab := append(old, ch)
	s.byIndex.Store(&tab)
	return ch
}

// Dispatch is the engine's Deliver upcall: it routes one in-order fragment
// to its channel. Exposed so callers constructing the engine directly can
// wire it; application code never calls it.
func (s *Session) Dispatch(d proto.Deliverable) {
	idx := int(uint32(d.Pkt.Flow) & (maxChannels - 1))
	var ch *Channel
	if tab := s.byIndex.Load(); tab != nil && idx < len(*tab) {
		ch = (*tab)[idx]
	}
	if ch == nil {
		panic(fmt.Sprintf("mad: fragment for unknown channel index %d (flow %d); channels must be created in the same order on all nodes", idx, d.Pkt.Flow))
	}
	ch.ingest(d)
}

// flowID builds the wire flow identifier for (channel index, source node).
func flowID(chIndex int, src packet.NodeID) packet.FlowID {
	return packet.FlowID(uint32(src)<<channelBits | uint32(chIndex))
}
