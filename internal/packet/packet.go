package packet

import (
	"fmt"

	"newmad/internal/simnet"
)

// Packet is the unit the optimizer schedules: one fragment of a structured
// message, tagged with the flow it belongs to and the constraint flags the
// application expressed through the packing API.
//
// A Packet is created by the collect layer (internal/mad) and flows through
// the optimizing layer (internal/core) into a transfer-layer frame
// (internal/drivers). Payload bytes are owned by the packet once submitted
// (see SendMode for when the capture happens).
// Field order is packed for size: the receive path allocates packets in
// per-frame batches (proto.Dispatcher), so keeping the header fields packed
// into whole words (80 bytes with the tenant tag; the Dst..Tenant group
// shares one word with three bytes of padding left) is measurable on the
// wire-to-deliver hot path.
type Packet struct {
	Flow   FlowID
	Src    NodeID
	Msg    MsgID
	Seq    int // fragment index within the message, starting at 0
	Dst    NodeID
	Class  ClassID
	Send   SendMode
	Recv   RecvMode
	Last   bool     // set on the final fragment of the message
	Tenant TenantID // admission-control principal; submit-side only, not on the wire

	// Payload is the fragment data. For rendezvous-converted fragments the
	// eager packet carries only the RTS and Payload stays with the source
	// until the CTS arrives; that bookkeeping lives in internal/proto.
	Payload []byte

	// Enqueued is the virtual time the packet entered the waiting list;
	// the engine uses it for latency accounting and Nagle deadlines.
	Enqueued simnet.Time

	// SubmitSeq is a global arrival number assigned by the collect layer,
	// used to keep scheduling deterministic and to preserve intra-flow
	// FIFO order cheaply.
	SubmitSeq uint64
}

// Size returns the payload length in bytes.
func (p *Packet) Size() int { return len(p.Payload) }

// String renders a compact identity for diagnostics.
func (p *Packet) String() string {
	return fmt.Sprintf("pkt{f%d m%d #%d %dB %s %s->%s %s}",
		p.Flow, p.Msg, p.Seq, p.Size(), p.Class, nodeStr(p.Src), nodeStr(p.Dst), p.Recv)
}

func nodeStr(n NodeID) string { return fmt.Sprintf("n%d", n) }

// Validate reports structural problems; the collect layer validates every
// packet on submission so that downstream layers can assume well-formedness.
func (p *Packet) Validate() error {
	switch {
	case p.Seq < 0:
		return fmt.Errorf("packet: negative Seq %d", p.Seq)
	case p.Src == p.Dst:
		return fmt.Errorf("packet: src == dst (%d); loopback flows are handled above the engine", p.Src)
	case p.Class >= NumClasses:
		return fmt.Errorf("packet: unknown class %d", p.Class)
	case p.Send > SendLater:
		return fmt.Errorf("packet: unknown send mode %d", p.Send)
	case p.Recv > RecvExpress:
		return fmt.Errorf("packet: unknown recv mode %d", p.Recv)
	}
	return nil
}
