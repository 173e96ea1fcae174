package mad

import (
	"fmt"
	"sync"

	"newmad/internal/packet"
	"newmad/internal/proto"
)

// Channel is a named communication scope. Within a channel, traffic from
// one source node forms a single FIFO flow; different channels (and
// different sources) are independent flows the optimizer may freely
// interleave — this is precisely where cross-flow aggregation finds its
// material.
type Channel struct {
	session *Session
	name    string
	index   int

	connMu sync.Mutex // conns alone: Connect never waits behind assembly
	conns  map[packet.NodeID]*Connection

	// mu guards inflows and the handlers: readers of different rails may
	// deliver fragments of one channel concurrently.
	mu      sync.Mutex
	inflows map[packet.FlowID]*assembly

	onMessage  MessageHandler
	onExpress  FragmentHandler
	onFragment FragmentHandler
}

// MessageHandler receives a fully assembled inbound message.
type MessageHandler func(src packet.NodeID, msg *Incoming)

// FragmentHandler receives a single fragment as it is delivered.
type FragmentHandler func(src packet.NodeID, frag *packet.Packet)

// A Message and an Incoming store their first inlineFrags fragments inside
// themselves, so that such a message is one heap object on each side;
// longer ones spill to the heap with the same semantics. saferArena bytes
// of send_SAFER captures (the middlewares' express headers) ride along.
const (
	inlineFrags = 4
	saferArena  = 48
)

// Incoming is an assembled message: fragments in pack order. It is an
// ordinary garbage-collected object, the handler's to keep.
type Incoming struct {
	Src       packet.NodeID
	Msg       packet.MsgID
	Fragments [][]byte
	// Express flags Fragments[i] that were packed receive_EXPRESS.
	Express []bool
	// Inline backing of Fragments and Express.
	frags   [inlineFrags][]byte
	express [inlineFrags]bool
}

// assembly accumulates the current message of one inbound flow.
type assembly struct {
	msg   *Incoming
	begun bool
}

// Name returns the channel name.
func (c *Channel) Name() string { return c.name }

// OnMessage installs the assembled-message handler.
func (c *Channel) OnMessage(h MessageHandler) {
	c.mu.Lock()
	c.onMessage = h
	c.mu.Unlock()
}

// OnExpress installs a handler invoked immediately for every express
// fragment, before the enclosing message completes — the receiver-side
// payoff of receive_EXPRESS (e.g. RPC dispatch before arguments arrive).
func (c *Channel) OnExpress(h FragmentHandler) {
	c.mu.Lock()
	c.onExpress = h
	c.mu.Unlock()
}

// OnFragment installs a raw per-fragment handler (diagnostics, custom
// assembly). Message assembly still runs when OnMessage is also set.
func (c *Channel) OnFragment(h FragmentHandler) {
	c.mu.Lock()
	c.onFragment = h
	c.mu.Unlock()
}

// Connect returns the connection (the outbound flow) to peer, creating it
// on first use.
func (c *Channel) Connect(peer packet.NodeID) *Connection {
	if peer == c.session.node {
		panic("mad: connecting a channel to self")
	}
	c.connMu.Lock()
	defer c.connMu.Unlock()
	if conn, ok := c.conns[peer]; ok {
		return conn
	}
	conn := &Connection{
		channel: c,
		peer:    peer,
		flow:    flowID(c.index, c.session.node),
	}
	c.conns[peer] = conn
	return conn
}

// ingest processes one in-order fragment from the session dispatcher. The
// deliverable carries the packet by value and stays on the stack: only an
// installed fragment handler that will actually run gets a copy of the
// packet, valid for the duration of the callback (TestAllocsMadIngest).
func (c *Channel) ingest(d proto.Deliverable) {
	express := d.Pkt.Recv == packet.RecvExpress
	c.mu.Lock()
	onFrag, onExpr, onMsg := c.onFragment, c.onExpress, c.onMessage
	as := c.inflows[d.Pkt.Flow]
	if as == nil {
		as = &assembly{}
		c.inflows[d.Pkt.Flow] = as
	}
	if !as.begun {
		as.msg = &Incoming{Src: d.Src, Msg: d.Pkt.Msg}
		as.msg.Fragments, as.msg.Express = as.msg.frags[:0], as.msg.express[:0]
		as.begun = true
	}
	if d.Pkt.Msg != as.msg.Msg {
		c.mu.Unlock()
		panic(fmt.Sprintf("mad: channel %q: fragment of message %d while message %d is open (flow %d)",
			c.name, d.Pkt.Msg, as.msg.Msg, d.Pkt.Flow))
	}
	as.msg.Fragments = append(as.msg.Fragments, d.Pkt.Payload)
	as.msg.Express = append(as.msg.Express, express)
	var complete *Incoming
	if d.Pkt.Last {
		complete = as.msg
		as.begun = false
		as.msg = nil
	}
	c.mu.Unlock()

	if onFrag != nil || (onExpr != nil && express) {
		p := d.Pkt // escapes into the handlers, so it is made only for them
		if onFrag != nil {
			onFrag(d.Src, &p)
		}
		if onExpr != nil && express {
			onExpr(d.Src, &p)
		}
	}
	if complete != nil && onMsg != nil {
		onMsg(complete.Src, complete)
	}
}

// Connection is one outbound flow: this node's messages to one peer over
// one channel. Messages are packed strictly one at a time per connection
// (Madeleine semantics); concurrent messages belong on distinct channels.
type Connection struct {
	channel *Channel
	peer    packet.NodeID
	flow    packet.FlowID

	mu      sync.Mutex
	nextSeq int
	nextMsg packet.MsgID
	open    bool
}

// Flow returns the wire flow id (diagnostics).
func (c *Connection) Flow() packet.FlowID { return c.flow }

// BeginPacking starts a new outbound message.
func (c *Connection) BeginPacking() *Message {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.open {
		panic(fmt.Sprintf("mad: BeginPacking with message %d still open on flow %d", c.nextMsg, c.flow))
	}
	c.open = true
	c.nextMsg++
	m := &Message{conn: c, msg: c.nextMsg}
	m.held = m.heldBuf[:0]
	return m
}

// Message is an outbound structured message under construction; packing
// costs this one object. The engine queues its own copy of each packet,
// but a copy's payload may alias the send_SAFER arena until the frame is
// posted (or reclaimed by failover): that slice keeps the Message alive
// that long, so it needs no release hook and must never be pooled.
type Message struct {
	conn *Connection
	msg  packet.MsgID
	// held are packed fragments not yet submitted: always the most recent
	// fragment (it may turn out to be the last) and every send_LATER
	// fragment (whose buffers must not be read before EndPacking).
	held  []*packet.Packet
	ended bool

	npkts   uint8 // slots of pkts handed out
	nsafer  uint8 // bytes of safer captured
	heldBuf [inlineFrags]*packet.Packet
	pkts    [inlineFrags]packet.Packet
	safer   [saferArena]byte
}

// Pack appends one fragment with the given constraint modes.
func (m *Message) Pack(data []byte, send packet.SendMode, recv packet.RecvMode) {
	m.PackClass(data, send, recv, classify(len(data), recv))
}

// PackClass is Pack with an explicit traffic class (middlewares use it to
// mark control tokens).
func (m *Message) PackClass(data []byte, send packet.SendMode, recv packet.RecvMode, class packet.ClassID) {
	if m.ended {
		panic("mad: Pack after EndPacking")
	}
	c := m.conn
	c.mu.Lock()
	payload := data
	if send == packet.SendSafer {
		// safer: capture now; caller may immediately reuse the buffer.
		if n := int(m.nsafer); len(data) <= saferArena-n {
			payload = m.safer[n : n+len(data) : n+len(data)]
			copy(payload, data)
			m.nsafer += uint8(len(data))
		} else {
			payload = append([]byte(nil), data...)
		}
	}
	p := m.newPacketLocked(class, payload)
	p.Send, p.Recv = send, recv

	// Submit every held fragment that is not send_LATER; the new one is
	// always held because it may be the message's last fragment.
	keep := m.held[:0]
	for _, h := range m.held {
		if h.Send == packet.SendLater {
			keep = append(keep, h)
		} else {
			c.submitLocked(h)
		}
	}
	m.held = append(keep, p)
	c.mu.Unlock()
}

// newPacketLocked numbers the message's next fragment, in an inline slot
// while there is one.
func (m *Message) newPacketLocked(class packet.ClassID, payload []byte) *packet.Packet {
	c := m.conn
	var p *packet.Packet
	if int(m.npkts) < inlineFrags {
		p = &m.pkts[m.npkts]
		m.npkts++
	} else {
		p = new(packet.Packet)
	}
	*p = packet.Packet{
		Flow:    c.flow,
		Msg:     m.msg,
		Seq:     c.nextSeq,
		Src:     c.channel.session.node,
		Dst:     c.peer,
		Class:   class,
		Payload: payload,
	}
	c.nextSeq++
	return p
}

// EndPacking completes the message: the final fragment is marked Last and
// all send_LATER fragments are read and submitted. It returns after the
// packets are handed to the optimizer (never blocking on the network).
func (m *Message) EndPacking() {
	if m.ended {
		panic("mad: double EndPacking")
	}
	m.ended = true
	c := m.conn
	c.mu.Lock()
	if len(m.held) == 0 {
		// Empty message: emit a zero-length terminator so the receiver
		// still observes a message boundary.
		m.held = append(m.held, m.newPacketLocked(packet.ClassControl, []byte{}))
	}
	m.held[len(m.held)-1].Last = true
	for _, h := range m.held {
		c.submitLocked(h)
	}
	m.held = nil
	c.open = false
	c.mu.Unlock()
}

func (c *Connection) submitLocked(p *packet.Packet) {
	if err := c.channel.session.engine.Submit(p); err != nil {
		panic(fmt.Sprintf("mad: submit failed: %v", err))
	}
}

// classify applies the default class rule: express fragments are control
// when tiny (signalling) else small; large payloads are bulk.
func classify(size int, recv packet.RecvMode) packet.ClassID {
	const bulkAt = 8 << 10
	switch {
	case size >= bulkAt:
		return packet.ClassBulk
	case recv == packet.RecvExpress && size <= 64:
		return packet.ClassControl
	default:
		return packet.ClassSmall
	}
}
