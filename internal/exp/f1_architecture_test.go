package exp

import (
	"testing"

	"newmad/internal/mad"
	"newmad/internal/packet"
	"newmad/internal/simnet"
	"newmad/internal/strategy"
)

// TestF1ArchitectureTrace realizes Figure 1: it traces one structured
// message through all three layers — the collect layer (mad packing API),
// the optimizing layer (core engine, activated by NIC idleness), and the
// transfer layer (driver + NIC) — and asserts each layer did its job, in
// order, with the metrics each layer owns.
func TestF1ArchitectureTrace(t *testing.T) {
	// A short Nagle delay lets the two fragments of the traced message
	// share one frame even though the NIC starts idle (§3's slow-sender
	// case).
	rig, err := NewRig(RigOptions{WithSessions: true, Knobs: strategy.Knobs{NagleDelay: 2 * simnet.Microsecond}})
	if err != nil {
		t.Fatal(err)
	}
	var delivered *mad.Incoming
	rig.Sessions[1].Channel("trace").OnMessage(func(src packet.NodeID, m *mad.Incoming) {
		delivered = m
	})

	// Layer 1 — collect: the application packs a structured message
	// (express header + cheaper payload) and immediately returns.
	conn := rig.Sessions[0].Channel("trace").Connect(1)
	msg := conn.BeginPacking()
	msg.Pack([]byte("hdr"), mad.SendCheaper, mad.RecvExpress)
	msg.Pack(make([]byte, 2048), mad.SendCheaper, mad.RecvCheaper)
	msg.EndPacking()

	st := rig.Cl.Stats
	if st.CounterValue("core.submitted") == 0 {
		t.Fatal("collect layer did not hand packets to the optimizer")
	}

	// Layer 2+3 — run the simulation: the optimizer reacts to channel
	// idleness and posts frames; the NIC models the transfer.
	rig.Cl.Eng.Run()

	if delivered == nil {
		t.Fatal("message did not traverse the three layers")
	}
	if len(delivered.Fragments) != 2 || string(delivered.Fragments[0]) != "hdr" {
		t.Fatalf("message corrupted in transit: %v fragments", len(delivered.Fragments))
	}

	// Layer ordering invariants, via the metrics each layer owns:
	submitted := st.CounterValue("core.submitted")
	posted := st.CounterValue("core.frames_posted")
	framesTx := st.CounterValue("nic.tx.frames")
	framesRx := st.CounterValue("nic.rx.frames")
	deliveredN := st.CounterValue("core.delivered")

	if posted == 0 || framesTx == 0 || framesRx == 0 {
		t.Fatalf("layers silent: posted=%d tx=%d rx=%d", posted, framesTx, framesRx)
	}
	if framesTx != posted {
		t.Fatalf("transfer layer saw %d frames, optimizer posted %d", framesTx, posted)
	}
	if framesRx != framesTx {
		t.Fatalf("rx %d != tx %d on a loss-free fabric", framesRx, framesTx)
	}
	if deliveredN != submitted {
		t.Fatalf("delivered %d of %d submitted fragments", deliveredN, submitted)
	}
	// Optimization layer: the two fragments shared one frame (the express
	// header may not be deferred, but aggregation inside one message is
	// free): fewer frames than fragments.
	if framesTx >= submitted {
		t.Fatalf("optimizer posted %d frames for %d fragments — no aggregation at all", framesTx, submitted)
	}
	// The engine was driven by idleness, not submits: the idle upcall
	// counter must be live once traffic flowed.
	if st.CounterValue("core.idle_upcalls") == 0 {
		t.Fatal("optimizer never activated by NIC idleness")
	}
}
