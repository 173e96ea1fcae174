package proto

import (
	"newmad/internal/packet"
)

// RMA emulates the remote-memory-access (put/get) protocol family the
// paper lists among the techniques a communication library must choose
// between. Nodes expose registered memory windows; peers write (put) and
// read (get) window ranges without involving the remote application.
//
// Wire mapping: RMA frames reuse the generic control block with repurposed
// fields — Ctrl.Flow carries the window id, Ctrl.Msg the byte offset,
// Ctrl.Size the length, Ctrl.Token the completion correlator.
//
// Like the rendezvous engines, RMA is passive: operations build frames for
// the optimizing layer to schedule (class ClassRMA), and reactive frames
// (get replies, put acks) go through the injected send hook.
type RMA struct {
	node      packet.NodeID
	send      SendHook
	windows   map[int32][]byte
	nextToken uint64
	// pendingGets/pendingPuts map tokens to completion callbacks.
	pendingGets map[uint64]func(data []byte)
	pendingPuts map[uint64]func()
	// rejected counts remote-originated frames dropped for addressing an
	// unknown window, an out-of-range or oversize span, or an unknown
	// token. A corrupt or replayed frame can produce any of these, so they
	// are survivable (counted, dropped) rather than fatal; local API misuse
	// still panics.
	rejected uint64
}

// NewRMA creates the engine for node; send emits reactive frames.
func NewRMA(node packet.NodeID, send SendHook) *RMA {
	if send == nil {
		panic("proto: nil send hook")
	}
	return &RMA{
		node:        node,
		send:        send,
		windows:     make(map[int32][]byte),
		pendingGets: make(map[uint64]func(data []byte)),
		pendingPuts: make(map[uint64]func()),
	}
}

// RegisterWindow exposes buf as window id; remote puts and gets address it
// by (id, offset). Re-registering an id replaces the window.
func (m *RMA) RegisterWindow(id int32, buf []byte) { m.windows[id] = buf }

// Put builds a put frame writing data to (window, off) at dst. done, if
// non-nil, runs when the remote acknowledges (an Ack frame); pass nil for
// fire-and-forget semantics.
func (m *RMA) Put(dst packet.NodeID, window int32, off int64, data []byte, done func()) *packet.Frame {
	var tok uint64
	if done != nil {
		m.nextToken++
		tok = m.nextToken
		m.pendingPuts[tok] = done
	}
	return &packet.Frame{
		Kind: packet.FramePut,
		Src:  m.node,
		Dst:  dst,
		Ctrl: packet.Ctrl{Token: tok, Flow: packet.FlowID(window), Msg: packet.MsgID(off), Size: len(data)},
		Bulk: data,
	}
}

// Get builds a get frame reading n bytes from (window, off) at dst; done
// receives the data when the reply arrives.
func (m *RMA) Get(dst packet.NodeID, window int32, off int64, n int, done func(data []byte)) *packet.Frame {
	if done == nil {
		panic("proto: Get requires a completion callback")
	}
	m.nextToken++
	tok := m.nextToken
	m.pendingGets[tok] = done
	return &packet.Frame{
		Kind: packet.FrameGet,
		Src:  m.node,
		Dst:  dst,
		Ctrl: packet.Ctrl{Token: tok, Flow: packet.FlowID(window), Msg: packet.MsgID(off), Size: n},
	}
}

// HandlePut applies an incoming put to the local window and acks when the
// initiator asked for completion. Puts addressing an unknown window or an
// out-of-range span are rejected whole — applying a truncated put would
// corrupt DSM pages, and panicking would let one corrupt frame crash the
// node — and counted through Rejected.
func (m *RMA) HandlePut(src packet.NodeID, f *packet.Frame) {
	win, off := int32(f.Ctrl.Flow), int64(f.Ctrl.Msg)
	buf, ok := m.windows[win]
	if !ok || off < 0 || off+int64(len(f.Bulk)) > int64(len(buf)) {
		m.rejected++
		return
	}
	copy(buf[off:], f.Bulk)
	if f.Ctrl.Token != 0 {
		ack := packet.AcquireFrame()
		ack.Kind = packet.FrameAck
		ack.Src = m.node
		ack.Dst = src
		ack.Ctrl = packet.Ctrl{Token: f.Ctrl.Token}
		m.send(ack)
	}
}

// HandleGet serves an incoming read by emitting a reply frame. Unknown
// windows, out-of-range spans and spans no reply frame could carry (over
// packet.MaxPayload) are rejected and counted, like HandlePut; the
// initiator's get then never completes, which is the initiator's bug to
// surface, not this node's to crash on.
func (m *RMA) HandleGet(src packet.NodeID, f *packet.Frame) {
	win, off, n := int32(f.Ctrl.Flow), int64(f.Ctrl.Msg), f.Ctrl.Size
	buf, ok := m.windows[win]
	if !ok || off < 0 || n < 0 || n > packet.MaxPayload || off+int64(n) > int64(len(buf)) {
		m.rejected++
		return
	}
	data := make([]byte, n)
	copy(data, buf[off:])
	m.send(&packet.Frame{
		Kind: packet.FrameGetReply,
		Src:  m.node,
		Dst:  src,
		Ctrl: packet.Ctrl{Token: f.Ctrl.Token, Flow: f.Ctrl.Flow, Msg: f.Ctrl.Msg, Size: n},
		Bulk: data,
	})
}

// HandleGetReply completes a pending get; replies for unknown tokens (a
// duplicate, or a corrupt correlator) are dropped and counted.
func (m *RMA) HandleGetReply(f *packet.Frame) {
	done, ok := m.pendingGets[f.Ctrl.Token]
	if !ok {
		m.rejected++
		return
	}
	delete(m.pendingGets, f.Ctrl.Token)
	// The reply bytes escape to the completion callback: pin the frame's
	// backing buffer so a recycled wire buffer can never alias them.
	f.PinBacking()
	done(f.Bulk)
}

// HandleAck completes a pending put; acks for unknown tokens are dropped
// and counted.
func (m *RMA) HandleAck(f *packet.Frame) {
	done, ok := m.pendingPuts[f.Ctrl.Token]
	if !ok {
		m.rejected++
		return
	}
	delete(m.pendingPuts, f.Ctrl.Token)
	done()
}

// Outstanding returns pending (gets, puts) awaiting completion.
func (m *RMA) Outstanding() (gets, puts int) {
	return len(m.pendingGets), len(m.pendingPuts)
}

// Rejected returns the number of remote-originated frames dropped for
// addressing unknown windows, out-of-range or oversize spans, or unknown
// tokens.
func (m *RMA) Rejected() uint64 { return m.rejected }
