package proto

import (
	"fmt"

	"newmad/internal/packet"
)

// Rendezvous protocol.
//
// Large RecvCheaper fragments are not worth sending eagerly: the receiver
// would have to stage them, and the sender's channel is occupied for the
// whole serialization with no opportunity to overlap. The rendezvous
// protocol replaces the payload with a tiny RTS control frame; once the
// receiver posts buffers and answers CTS, the bulk payload travels as an
// RData frame — re-entering the optimizer as a ClassBulk item, so bulk
// transfers are scheduled (and balanced across NICs) like everything else.
//
// Where the receiver lands every frame in a buffer of its own (the socket
// mesh), the handshake buys nothing: the RData leaves at once (Direct) and
// is accepted ungranted because it arrived wire-landed (HandleRData).
//
// The engines below are deliberately passive: they build frames and invoke
// injected hooks, and the optimizing layer decides when frames actually hit
// a channel.
//
// Loss tolerance: the original engines assumed loss-free fabrics and
// panicked on any protocol irregularity. With the chaos layer
// (internal/chaos) injecting drops and duplicates, irregularities that a
// lossy network can produce — a duplicate RTS after a timeout retry, a
// duplicate CTS, an RData for a transfer that already completed — are now
// tolerated idempotently and counted, so the retry machinery in
// internal/core can re-send control frames without risking double delivery.
// Conditions only a local programming error can produce still panic.

// SendHook enqueues a reactive protocol frame (CTS, get reply...) for
// transmission; installed by the optimizing layer.
type SendHook func(f *packet.Frame)

// GrantHook tells the optimizing layer that a rendezvous it started has
// been granted and the bulk payload is ready to schedule.
type GrantHook func(token uint64, p *packet.Packet)

// RdvSender is the source-side rendezvous engine of one node.
type RdvSender struct {
	node      packet.NodeID
	nextToken uint64
	pending   map[uint64]*packet.Packet // RTS sent, no CTS yet
	granted   map[uint64]*packet.Packet // CTS seen, RData not yet built
	onGrant   GrantHook
	dupCTS    uint64
}

// NewRdvSender creates the engine; grant is invoked when a CTS arrives.
func NewRdvSender(node packet.NodeID, grant GrantHook) *RdvSender {
	if grant == nil {
		panic("proto: nil grant hook")
	}
	return &RdvSender{
		node:    node,
		pending: make(map[uint64]*packet.Packet),
		granted: make(map[uint64]*packet.Packet),
		onGrant: grant,
	}
}

// rtsFor builds the RTS frame announcing p under token tok. The frame is
// pooled: it carries no payload and nothing retains it past the wire write
// (retries rebuild a fresh one), so the transport releases it after
// serialization.
func (s *RdvSender) rtsFor(tok uint64, p *packet.Packet) *packet.Frame {
	rts := packet.AcquireFrame()
	rts.Kind = packet.FrameRTS
	rts.Src = s.node
	rts.Dst = p.Dst
	rts.Ctrl = packet.Ctrl{
		Token: tok, Flow: p.Flow, Msg: p.Msg, Seq: p.Seq,
		Size: p.Size(), Last: p.Last,
	}
	return rts
}

// Start registers p for rendezvous transfer and returns the RTS frame to
// schedule (control class). The payload stays with the engine until
// granted.
func (s *RdvSender) Start(p *packet.Packet) *packet.Frame {
	s.nextToken++
	s.pending[s.nextToken] = p
	return s.rtsFor(s.nextToken, p)
}

// Direct returns the RData carrying p under a fresh token, keeping nothing.
func (s *RdvSender) Direct(p *packet.Packet) *packet.Frame {
	s.nextToken++
	return s.rdataFor(s.nextToken, p)
}

// RetryRTS rebuilds the RTS for a still-ungranted token — the engine's
// timeout-and-retry path when the original RTS (or the answering CTS) may
// have been lost. Returns nil when the token is unknown or already granted,
// so a retry timer that lost the race against the CTS is a no-op.
func (s *RdvSender) RetryRTS(token uint64) *packet.Frame {
	p, ok := s.pending[token]
	if !ok {
		return nil
	}
	return s.rtsFor(token, p)
}

// HandleCTS processes a grant. Duplicate CTSes — the receiver re-grants
// when it sees a retried RTS for a transfer it already granted — are
// idempotent: only the first moves the payload to the grant hook.
func (s *RdvSender) HandleCTS(f *packet.Frame) {
	tok := f.Ctrl.Token
	p, ok := s.pending[tok]
	if !ok {
		// Already granted (duplicate CTS) or never ours (stray token from a
		// corrupted or replayed frame): drop and count.
		s.dupCTS++
		return
	}
	delete(s.pending, tok)
	s.granted[tok] = p
	s.onGrant(tok, p)
}

// BuildRData consumes the granted payload for token and returns the bulk
// frame to schedule. Unknown tokens panic: grants flow straight from
// HandleCTS to BuildRData inside the engine, so a miss is a local bug.
func (s *RdvSender) BuildRData(token uint64) *packet.Frame {
	p, ok := s.granted[token]
	if !ok {
		panic(fmt.Sprintf("proto: BuildRData for unknown token %d", token))
	}
	delete(s.granted, token)
	return s.rdataFor(token, p)
}

// rdataFor builds the RData frame carrying p's payload under token.
func (s *RdvSender) rdataFor(token uint64, p *packet.Packet) *packet.Frame {
	rd := packet.AcquireFrame()
	rd.Kind = packet.FrameRData
	rd.Src = s.node
	rd.Dst = p.Dst
	rd.Ctrl = packet.Ctrl{
		Token: token, Flow: p.Flow, Msg: p.Msg, Seq: p.Seq,
		Size: p.Size(), Last: p.Last,
	}
	rd.Bulk = p.Payload // aliases the application's payload; Reset only drops the reference
	return rd
}

// Outstanding returns the number of rendezvous transfers whose payload the
// engine still holds (un-granted plus granted-but-not-built).
func (s *RdvSender) Outstanding() int { return len(s.pending) + len(s.granted) }

// PendingTokens reports whether token is still awaiting a CTS.
func (s *RdvSender) Pending(token uint64) bool {
	_, ok := s.pending[token]
	return ok
}

// DupCTS returns the number of duplicate or stray CTS frames dropped.
func (s *RdvSender) DupCTS() uint64 { return s.dupCTS }

// rdvKey scopes receiver-side rendezvous state by source: tokens are
// per-sender counters, so two senders may use the same token value.
type rdvKey struct {
	src   packet.NodeID
	token uint64
}

// completedWindow bounds the receiver's memory of finished transfers per
// source. A retried RTS can arrive arbitrarily late (it was delayed in a
// rail queue while its sibling completed the transfer), and granting it
// would open a rendezvous no RData will ever close; a direct RData may
// arrive twice (a dying rail's copy, then its failover). Retries are few
// (core.DefaultRdvRetryMax) and a failover follows its rail's death, so a
// duplicate older than the last 4096 completions from one source cannot
// occur in practice.
const completedWindow = 4096

// completedLog remembers the most recent completedWindow finished tokens
// of one source (set + FIFO eviction ring).
type completedLog struct {
	set  map[uint64]bool
	ring []uint64
	next int
}

func (c *completedLog) add(token uint64) {
	if c.set == nil {
		c.set = make(map[uint64]bool, completedWindow)
		c.ring = make([]uint64, completedWindow)
	}
	if len(c.set) >= completedWindow {
		delete(c.set, c.ring[c.next])
	}
	c.ring[c.next] = token
	c.next = (c.next + 1) % completedWindow
	c.set[token] = true
}

func (c *completedLog) has(token uint64) bool { return c != nil && c.set[token] }

// RdvReceiver is the sink-side engine: it grants RTSes and turns RData
// frames back into packets for the reassembler.
type RdvReceiver struct {
	node      packet.NodeID
	send      SendHook
	reasm     *Reassembler
	granted   map[rdvKey]bool // in-flight granted transfers
	completed map[packet.NodeID]*completedLog
	dupRTS    uint64
	dupRD     uint64
	badRD     uint64
}

// NewRdvReceiver creates the engine; send emits CTS frames. The last
// argument is ignored: it was the cap of a grant queue that no engine set
// (TCP's receive window is the bound on sockets), and callers pass 0.
func NewRdvReceiver(node packet.NodeID, reasm *Reassembler, send SendHook, _ int) *RdvReceiver {
	if send == nil {
		panic("proto: nil send hook")
	}
	if reasm == nil {
		panic("proto: nil reassembler")
	}
	return &RdvReceiver{
		node:      node,
		send:      send,
		reasm:     reasm,
		granted:   make(map[rdvKey]bool),
		completed: make(map[packet.NodeID]*completedLog),
	}
}

// HandleRTS grants an incoming rendezvous request. A duplicate RTS — the
// sender timed out waiting for the CTS and retried — re-sends the CTS when
// the transfer was already granted (the original CTS may have been lost);
// it never double-grants. A straggler RTS for a transfer that already
// *completed* (its sibling won the race end to end) is dropped outright:
// re-granting it would hold a grant open forever, since the sender has
// nothing left to send for the token.
func (r *RdvReceiver) HandleRTS(f *packet.Frame) {
	k := rdvKey{f.Src, f.Ctrl.Token}
	if r.completed[k.src].has(k.token) {
		r.dupRTS++
		return
	}
	if r.granted[k] {
		r.dupRTS++ // re-send below: recover a possibly-lost CTS without re-granting
	}
	r.granted[k] = true
	cts := packet.AcquireFrame()
	cts.Kind = packet.FrameCTS
	cts.Src = r.node
	cts.Dst = k.src
	cts.Ctrl = f.Ctrl // copy: f may be recycled after dispatch
	r.send(cts)
}

// HandleRData completes a rendezvous: the bulk payload becomes an ordinary
// fragment in the reassembly stream. A granted token completes; so does an
// ungranted one that arrived wire-landed (f.Backed() — a direct transfer,
// see RdvSender.Direct) and is not a completed token's duplicate. Everything
// else — an unbacked frame for a token never granted, a token already
// completed — is dropped and counted, as is a frame whose payload length
// contradicts the negotiated size: all are producible by a lossy or
// corrupting network, and none may crash the node.
func (r *RdvReceiver) HandleRData(src packet.NodeID, f *packet.Frame) {
	c := f.Ctrl
	k := rdvKey{src, c.Token}
	log := r.completed[src]
	if !r.granted[k] && (!f.Backed() || log.has(k.token)) {
		r.dupRD++
		return
	}
	if len(f.Bulk) != c.Size {
		r.badRD++
		return
	}
	delete(r.granted, k)
	if log == nil {
		log = &completedLog{}
		r.completed[src] = log
	}
	log.add(k.token)
	// The bulk bytes escape into the reassembly stream (and from there to
	// the application): pin the frame's backing buffer so releasing the
	// frame cannot recycle memory the delivered payload aliases. Bulk
	// transfers stay zero-copy; the buffer's lifetime is the payload's.
	f.PinBacking()
	p := packet.Packet{
		Flow: c.Flow, Msg: c.Msg, Seq: c.Seq, Last: c.Last,
		Src: src, Dst: r.node, Class: packet.ClassBulk,
		Recv: packet.RecvCheaper, Payload: f.Bulk,
	}
	r.reasm.Ingest(src, &p)
}

// Granted returns the number of in-flight granted transfers.
func (r *RdvReceiver) Granted() int { return len(r.granted) }

// Anomalies returns the counts of tolerated protocol irregularities:
// duplicate RTSes, RData frames for unknown transfers, and RData frames
// whose payload contradicted the negotiated size.
func (r *RdvReceiver) Anomalies() (dupRTS, dupRData, badRData uint64) {
	return r.dupRTS, r.dupRD, r.badRD
}
