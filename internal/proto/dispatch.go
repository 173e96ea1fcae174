package proto

import (
	"fmt"

	"newmad/internal/packet"
)

// Dispatcher is the per-node frame router of the receive path: every frame
// a driver delivers is classified by kind and handed to the engine that
// understands it. It is the single place where the frame taxonomy is
// interpreted, so adding a protocol means one new case here plus its
// engine.
type Dispatcher struct {
	node  packet.NodeID
	reasm *Reassembler
	rdvS  *RdvSender
	rdvR  *RdvReceiver
	rma   *RMA
}

// NewDispatcher wires the engines of one node together. Any engine may be
// nil when the node does not use that protocol; receiving a frame for a
// nil engine panics, making configuration mistakes loud.
func NewDispatcher(node packet.NodeID, reasm *Reassembler, rdvS *RdvSender, rdvR *RdvReceiver, rma *RMA) *Dispatcher {
	return &Dispatcher{node: node, reasm: reasm, rdvS: rdvS, rdvR: rdvR, rma: rma}
}

// HandleFrame routes one received frame. The frame itself is only
// borrowed: the caller (a wire driver's receive path, via the engine) may
// release it — and recycle its backing buffer — as soon as HandleFrame
// returns, so every engine below copies or pins whatever it keeps.
func (d *Dispatcher) HandleFrame(src packet.NodeID, f *packet.Frame) {
	switch f.Kind {
	case packet.FrameData:
		if d.reasm == nil {
			panic(d.misroute(f))
		}
		d.ingestData(src, f)
	case packet.FrameRTS:
		if d.rdvR == nil {
			panic(d.misroute(f))
		}
		d.rdvR.HandleRTS(f)
	case packet.FrameCTS:
		if d.rdvS == nil {
			panic(d.misroute(f))
		}
		d.rdvS.HandleCTS(f)
	case packet.FrameRData:
		if d.rdvR == nil {
			panic(d.misroute(f))
		}
		d.rdvR.HandleRData(src, f)
	case packet.FramePut:
		if d.rma == nil {
			panic(d.misroute(f))
		}
		d.rma.HandlePut(src, f)
	case packet.FrameGet:
		if d.rma == nil {
			panic(d.misroute(f))
		}
		d.rma.HandleGet(src, f)
	case packet.FrameGetReply:
		if d.rma == nil {
			panic(d.misroute(f))
		}
		d.rma.HandleGetReply(f)
	case packet.FrameAck:
		if d.rma == nil {
			panic(d.misroute(f))
		}
		d.rma.HandleAck(f)
	default:
		panic(fmt.Sprintf("proto: node %d received unknown frame kind %v", d.node, f.Kind))
	}
}

// Land is the receive path's memory-discipline pivot for eager data
// (DESIGN.md §5). A backed data frame's payloads alias a pooled wire buffer
// that is recycled after dispatch, so Land copies them into one payload
// block the delivered payload slices own and recycles the buffer at once;
// the frame is then unbacked, so a second Land is a no-op. Any other frame
// is left as it is — an unbacked one (a test's, a corrupted copy) delivers
// payloads that alias the frame's own, since nothing recycles its bytes.
// HandleFrame lands a data frame itself; a caller that serializes dispatch
// under a lock calls Land first, so the copy stays outside it.
func Land(f *packet.Frame) {
	if f.Kind != packet.FrameData || !f.Backed() {
		return
	}
	total := 0
	for i := range f.Entries {
		total += len(f.Entries[i].Payload)
	}
	if total > 0 {
		block := make([]byte, 0, total)
		for i := range f.Entries {
			e := &f.Entries[i]
			if len(e.Payload) > 0 {
				start := len(block)
				block = append(block, e.Payload...)
				e.Payload = block[start:len(block):len(block)]
			}
		}
	}
	f.ReleaseBacking()
}

// ingestData turns a data frame's entries into receiver-side packets and
// feeds the reassembler. Packets are materialized on the stack and travel
// by value through Deliverable, so an aggregated frame's dispatch costs at
// most one allocation, Land's payload block.
func (d *Dispatcher) ingestData(src packet.NodeID, f *packet.Frame) {
	Land(f)
	var p packet.Packet
	for i := range f.Entries {
		e := &f.Entries[i]
		p = packet.Packet{
			Flow: e.Flow, Msg: e.Msg, Seq: e.Seq, Last: e.Last,
			Src: src, Dst: d.node, Class: e.Class, Recv: e.Recv,
			Payload: e.Payload, Enqueued: e.Enqueued,
		}
		d.reasm.Ingest(src, &p)
	}
}

func (d *Dispatcher) misroute(f *packet.Frame) string {
	return fmt.Sprintf("proto: node %d received %v frame but has no engine for it", d.node, f.Kind)
}
