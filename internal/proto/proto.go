// Package proto implements the message-level protocols the optimizer
// chooses between — eager transfer, rendezvous (RTS/CTS/RData), and RMA
// put/get emulation — together with the receiver-side demultiplexing and
// reassembly that turns frames back into ordered per-flow packet streams.
//
// The split of responsibilities mirrors the paper's architecture: the
// optimizing layer decides *when and how* packets travel (aggregate, delay,
// reorder, convert to rendezvous); this package supplies the mechanics of
// each method and hides them from the layers above.
package proto

import (
	"newmad/internal/packet"
)

// Deliverable is a packet handed to the layer above (internal/mad) in
// intra-flow FIFO order, regardless of how it traveled.
//
// The packet travels BY VALUE: the receive path materializes packets on
// the stack and the reassembler copies whatever must wait, so delivering a
// frame's worth of fragments costs no per-packet allocations — and no
// consumer can retain a pointer into recycled storage by accident. The
// Payload bytes are the consumer's to keep (DESIGN.md §5); everything else
// is copied out of the struct as needed. A consumer that lets &d.Pkt reach
// an indirect call moves the Deliverable to the heap on every delivery:
// mad's ingest copies the packet only for an installed fragment handler
// (perf.TestAllocsMadIngest).
type Deliverable struct {
	Src packet.NodeID
	Pkt packet.Packet
}

// DeliverFunc receives reassembled packets.
type DeliverFunc func(d Deliverable)

// Reassembler is the receive-side demultiplexer of one node: frames in,
// ordered per-flow packet streams out.
//
// High-speed interconnect fabrics (and TCP) deliver frames of one channel
// in order, but the optimizer spreads a flow across channels and NICs, and
// rendezvous bulk data arrives out of band. The reassembler therefore
// buffers out-of-order fragments per flow and releases them strictly by
// submission sequence (Seq within Msg, Msg order within the flow being
// implied by Seq numbering at the source — the collect layer numbers
// fragments of a flow with a single monotonically increasing sequence).
type Reassembler struct {
	node    packet.NodeID
	deliver DeliverFunc
	flows   map[flowKey]*flowState
	dups    uint64
}

// flowKey scopes reassembly state by source: two senders may use the same
// flow id (the mad layer never does — it encodes the source in the id —
// but raw engine users get collision safety regardless).
type flowKey struct {
	src  packet.NodeID
	flow packet.FlowID
}

type flowState struct {
	nextSeq int
	pending map[int]Deliverable
}

// NewReassembler creates the receive demux for node, delivering in-order
// packets to fn.
func NewReassembler(node packet.NodeID, fn DeliverFunc) *Reassembler {
	if fn == nil {
		panic("proto: nil deliver func")
	}
	return &Reassembler{node: node, deliver: fn, flows: make(map[flowKey]*flowState)}
}

// flowSeq is the ordering key the collect layer assigns: fragments of one
// flow carry strictly increasing Seq values across messages (Msg changes,
// Seq keeps counting). See mad.Channel for the sender side.

// Ingest accepts one arrived packet (from any frame kind) and releases
// whatever has become in-order. Duplicate fragments — a fragment already
// delivered, or a second copy of one still buffered — are dropped and
// counted: with the failover and retry machinery re-sending frames whose
// fate a broken connection left ambiguous, the reassembler's sequence
// numbers are what turns at-least-once transport into exactly-once
// delivery.
func (r *Reassembler) Ingest(src packet.NodeID, p *packet.Packet) {
	k := flowKey{src, p.Flow}
	fs := r.flows[k]
	if fs == nil {
		fs = &flowState{pending: make(map[int]Deliverable)}
		r.flows[k] = fs
	}
	if p.Seq < fs.nextSeq {
		r.dups++
		return
	}
	if p.Seq == fs.nextSeq {
		// In-order fast path — the steady state on an ordered transport:
		// deliver straight from the caller's (usually stack-resident)
		// packet without a round trip through the pending map.
		fs.nextSeq++
		r.deliver(Deliverable{Src: src, Pkt: *p})
	} else {
		if _, dup := fs.pending[p.Seq]; dup {
			r.dups++
			return
		}
		fs.pending[p.Seq] = Deliverable{Src: src, Pkt: *p}
	}
	for {
		d, ok := fs.pending[fs.nextSeq]
		if !ok {
			return
		}
		delete(fs.pending, fs.nextSeq)
		fs.nextSeq++
		r.deliver(d)
	}
}

// Duplicates returns the number of duplicate fragments dropped — the
// exactly-once filter's activity counter. Zero on loss-free fabrics; under
// chaos it counts how often a retransmission raced its original.
func (r *Reassembler) Duplicates() uint64 { return r.dups }

// PendingFragments returns how many fragments are buffered out of order
// (should drain to zero at quiesce; tests assert this invariant).
func (r *Reassembler) PendingFragments() int {
	n := 0
	for _, fs := range r.flows {
		n += len(fs.pending)
	}
	return n
}
