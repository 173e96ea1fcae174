package cluster

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"newmad/internal/chaos"
	"newmad/internal/packet"
	"newmad/internal/proto"
)

// TestPooledFramesSurviveInjectorHolds pins the receive-side half of the
// pooled-frame ownership contract (DESIGN.md §5) against the consumer that
// stresses it hardest: a chaos injector interposed between the wire reader
// and the engine holds backed frames past the reader's return — delay
// rules park them on timers, reorder rules park them in the overtaking
// slot — while the surrounding traffic keeps acquiring and releasing
// buffers from the same pools. If anything recycled a held frame's backing
// buffer early, the delayed deliveries would surface corrupt payloads or
// duplicate sequence numbers; under -race, the detector convicts the
// access pattern directly. Every sixteenth message is bulk and travels by
// rendezvous: its RData frame lands in an exact-size unpooled buffer, is
// held by the injector like any other, and its payload — pinned, handed to
// the application, kept here — must still read true when everything else
// has been released.
func TestPooledFramesSurviveInjectorHolds(t *testing.T) {
	const msgs = 400
	const payloadLen = 192
	const bulkLen = 128 << 10 // over the TCP profile's rendezvous threshold
	sizeOf := func(seq int) int {
		if seq%16 == 15 {
			return bulkLen
		}
		return payloadLen
	}
	intact := func(p []byte, seq int) bool {
		if len(p) != sizeOf(seq) {
			return false
		}
		for _, b := range p[4:] {
			if b != byte(seq) {
				return false
			}
		}
		return true
	}

	type key struct {
		flow packet.FlowID
		seq  int
	}
	var mu sync.Mutex
	got := map[key]int{}
	bad := 0
	keptBulk := map[int][]byte{}
	c, err := New(Options{
		Nodes: 2,
		Raw:   true,
		Chaos: &ChaosPlan{
			Seed: testSeed(t, 7),
			Rules: []chaos.Rule{
				{Kind: chaos.Delay, Prob: 0.25, Delay: 2 * time.Millisecond},
				{Kind: chaos.Reorder, Prob: 0.25},
			},
		},
		OnDeliver: func(node packet.NodeID, d proto.Deliverable) {
			if node != 1 {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			p := d.Pkt.Payload
			if len(p) < 4 {
				bad++
				return
			}
			seq := int(binary.BigEndian.Uint32(p))
			if !intact(p, seq) {
				bad++
				return
			}
			got[key{d.Pkt.Flow, seq}]++
			if len(p) == bulkLen {
				keptBulk[seq] = p
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	eng := c.Engine(0)
	for seq := 0; seq < msgs; seq++ {
		payload := make([]byte, sizeOf(seq))
		binary.BigEndian.PutUint32(payload, uint32(seq))
		for i := 4; i < len(payload); i++ {
			payload[i] = byte(seq)
		}
		p := &packet.Packet{
			Flow: 1, Msg: packet.MsgID(seq), Seq: seq, Last: true,
			Src: 0, Dst: 1, Class: packet.ClassSmall, Payload: payload,
		}
		if len(payload) == bulkLen {
			p.Class = packet.ClassBulk
		}
		if err := eng.Submit(p); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(20 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == msgs {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out: %d of %d messages delivered", n, msgs)
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if bad != 0 {
		t.Fatalf("%d corrupt payloads — a held frame's backing buffer was recycled early", bad)
	}
	for k, n := range got {
		if n != 1 {
			t.Fatalf("packet %v delivered %d times", k, n)
		}
	}
	if len(keptBulk) != msgs/16 {
		t.Fatalf("%d bulk payloads delivered, want %d", len(keptBulk), msgs/16)
	}
	for seq, p := range keptBulk {
		if !intact(p, seq) {
			t.Fatalf("bulk payload %d was overwritten after delivery", seq)
		}
	}
}
