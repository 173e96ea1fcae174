package proto

import (
	"testing"

	"newmad/internal/packet"
)

// FuzzDispatch is the receive-path counterpart of packet.FuzzDecode: where
// that harness proves arbitrary bytes cannot panic the wire decoder, this
// one proves arbitrary *frame sequences* — including duplicated control
// frames, replayed RData, mid-rendezvous garbage and RMA frames addressing
// nonsense windows — cannot panic the protocol engines behind the
// dispatcher, and that whatever is delivered still honors the reassembler's
// exactly-once, in-order contract.
//
// The input is treated as a byte stream: decodable frames are dispatched,
// undecodable prefixes are skipped a byte at a time (garbage between frames
// is exactly what a corrupting transport produces). The committed seed
// corpus (testdata/fuzz/FuzzDispatch) mirrors the programmatic seeds below,
// like packet/testdata/fuzz does for FuzzDecode.

// fuzzDispatchSeeds returns representative frame sequences: happy paths,
// retry paths, and protocol nonsense.
func fuzzDispatchSeeds() [][]byte {
	mk := func(frames ...*packet.Frame) []byte {
		var out []byte
		for _, f := range frames {
			out = f.Encode(out)
		}
		return out
	}
	rts := &packet.Frame{Kind: packet.FrameRTS, Src: 0, Dst: 1,
		Ctrl: packet.Ctrl{Token: 1, Flow: 4, Msg: 1, Seq: 0, Size: 8, Last: true}}
	cts := &packet.Frame{Kind: packet.FrameCTS, Src: 1, Dst: 0, Ctrl: rts.Ctrl}
	rdata := &packet.Frame{Kind: packet.FrameRData, Src: 0, Dst: 1, Ctrl: rts.Ctrl,
		Bulk: []byte("12345678")}
	data := &packet.Frame{Kind: packet.FrameData, Src: 0, Dst: 1, Entries: []packet.Entry{
		{Flow: 1, Msg: 1, Seq: 0, Payload: []byte("a")},
		{Flow: 1, Msg: 1, Seq: 1, Last: true, Payload: []byte("b")},
	}}
	outOfOrder := &packet.Frame{Kind: packet.FrameData, Src: 2, Dst: 1, Entries: []packet.Entry{
		{Flow: 7, Msg: 1, Seq: 3, Payload: []byte("late")},
		{Flow: 7, Msg: 1, Seq: 0, Payload: []byte("early")},
	}}
	put := &packet.Frame{Kind: packet.FramePut, Src: 0, Dst: 1,
		Ctrl: packet.Ctrl{Token: 5, Flow: 1, Msg: 0, Size: 4}, Bulk: []byte("putd")}
	wildPut := &packet.Frame{Kind: packet.FramePut, Src: 0, Dst: 1,
		Ctrl: packet.Ctrl{Token: 6, Flow: 99, Msg: 1 << 40, Size: 4}, Bulk: []byte("wild")}
	get := &packet.Frame{Kind: packet.FrameGet, Src: 0, Dst: 1,
		Ctrl: packet.Ctrl{Token: 7, Flow: 1, Msg: 0, Size: 4}}
	ack := &packet.Frame{Kind: packet.FrameAck, Src: 0, Dst: 1, Ctrl: packet.Ctrl{Token: 404}}

	garbage := []byte{0x4D, 0x61, 0x00, 0xFF, 0xFF, 0x13, 0x37}
	midRdv := mk(rts)
	midRdv = append(midRdv, garbage...)
	midRdv = append(midRdv, mk(rts, cts, rdata, rdata)...) // retry + replay

	return [][]byte{
		mk(data),
		mk(outOfOrder),
		mk(rts, cts, rdata),
		midRdv,
		mk(put, wildPut, get, ack),
		mk(cts, rdata), // CTS/RData with no rendezvous in sight
		garbage,
	}
}

func FuzzDispatch(f *testing.F) {
	for _, seed := range fuzzDispatchSeeds() {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, stream []byte) {
		// One receiving node (id 1) with every engine wired, plus a
		// sender-side rendezvous engine so CTS frames have somewhere to go.
		type flowID struct {
			src  packet.NodeID
			flow packet.FlowID
		}
		nextSeq := map[flowID]int{}
		delivered := 0
		reasm := NewReassembler(1, func(d Deliverable) {
			delivered++
			k := flowID{d.Src, d.Pkt.Flow}
			if d.Pkt.Seq != nextSeq[k] {
				t.Fatalf("flow %v delivered seq %d, expected %d", k, d.Pkt.Seq, nextSeq[k])
			}
			nextSeq[k]++
		})
		var rdvS *RdvSender
		var reactive []*packet.Frame
		send := func(fr *packet.Frame) { reactive = append(reactive, fr) }
		rdvS = NewRdvSender(1, func(tok uint64, _ *packet.Packet) {
			// Grants must be consumable exactly once, like the engine does.
			rdvS.BuildRData(tok)
		})
		// Outstanding local rendezvous, so stream CTSes with small tokens
		// exercise the genuine grant path, not just the duplicate drop.
		started := 0
		for i := 0; i < 3; i++ {
			rdvS.Start(&packet.Packet{Flow: packet.FlowID(50 + i), Seq: 0, Last: true,
				Src: 1, Dst: 0, Payload: make([]byte, 8)})
			started++
		}
		rdvR := NewRdvReceiver(1, reasm, send, 2)
		rma := NewRMA(1, send)
		rma.RegisterWindow(1, make([]byte, 64))
		d := NewDispatcher(1, reasm, rdvS, rdvR, rma)

		for len(stream) > 0 {
			fr := &packet.Frame{}
			n, err := packet.DecodeInto(fr, stream)
			if err != nil {
				stream = stream[1:] // skip garbage a byte at a time
				continue
			}
			d.HandleFrame(fr.Src, fr)
			stream = stream[n:]
		}
		// The grant hook consumes each grant immediately, so every local
		// rendezvous is either still pending or fully consumed — a stray
		// CTS can never strand a payload in between.
		if rdvS.Outstanding() > started {
			t.Fatalf("rendezvous payloads multiplied: %d outstanding of %d started",
				rdvS.Outstanding(), started)
		}
		_ = reactive
	})
}
