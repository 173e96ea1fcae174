package core

import (
	"testing"

	"newmad/internal/packet"
	"newmad/internal/proto"
)

// spanTotal sums one span kind's sample count across every (class, rail)
// cell of an engine.
func spanTotal(e *Engine, k SpanKind) uint64 {
	return e.Spans().Total(int(k)).Count()
}

// TestSpansEagerLifecycle proves the always-on spans observe the eager
// path: queue-wait, transmit and end-to-end legs all populate on a plain
// two-node exchange, keyed to the right class.
func TestSpansEagerLifecycle(t *testing.T) {
	tn := newNet(t, 2, "aggregate", nil)
	const n = 8
	for i := 0; i < n; i++ {
		if err := tn.engines[0].Submit(pkt(1, i, 0, 1, 128)); err != nil {
			t.Fatal(err)
		}
	}
	tn.cl.Eng.Run()
	if len(tn.inbox[1]) != n {
		t.Fatalf("delivered %d", len(tn.inbox[1]))
	}

	if got := spanTotal(tn.engines[0], SpanQueueWait); got != n {
		t.Fatalf("sender queue-wait samples = %d, want %d", got, n)
	}
	if got := spanTotal(tn.engines[0], SpanXmit); got != 0 {
		// Frames travel 0 -> 1; the sender receives none.
		t.Fatalf("sender xmit samples = %d, want 0", got)
	}
	if got := spanTotal(tn.engines[1], SpanXmit); got == 0 {
		t.Fatal("receiver recorded no xmit spans")
	}
	if got := spanTotal(tn.engines[1], SpanE2E); got != n {
		t.Fatalf("receiver e2e samples = %d, want %d", got, n)
	}
	// Class keying: everything here was ClassSmall.
	for _, c := range tn.engines[1].Spans().Snapshot() {
		if SpanKind(c.Kind) == SpanE2E && c.Class != int(packet.ClassSmall) {
			t.Fatalf("e2e span filed under class %d", c.Class)
		}
	}
	// Sanity of the measurements themselves: e2e covers the whole
	// lifecycle, so its max is at least the queue-wait's min.
	e2e := tn.engines[1].Spans().Total(int(SpanE2E))
	qw := tn.engines[0].Spans().Total(int(SpanQueueWait))
	if e2e.Max() < qw.Min() {
		t.Fatalf("e2e max %v < queue-wait min %v", e2e.Max(), qw.Min())
	}
}

// TestSpansRendezvousHandshake proves the rendezvous legs populate: each
// sender times RTS→CTS, the receiver times RTS→RData. Two senders' first
// rendezvous carry the same token (each sender numbers its own), and the
// receiver must still time both. A straggler RTS retry that arrives after
// its transfer completed is dropped ungranted and must leave no stamp.
func TestSpansRendezvousHandshake(t *testing.T) {
	for _, c := range []struct {
		name      string
		senders   []packet.NodeID // each sends one 64 KiB rendezvous to node 0
		straggler bool            // then a late RTS retry from the first sender
	}{
		{"one sender", []packet.NodeID{1}, false},
		{"two senders, one token", []packet.NodeID{1, 2}, false},
		{"straggler RTS after completion", []packet.NodeID{1}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			tn := newNet(t, len(c.senders)+1, "aggregate", nil, singleChanMX())
			for _, src := range c.senders {
				big := pkt(packet.FlowID(src), 0, src, 0, 64<<10)
				big.Class = packet.ClassBulk
				if err := tn.engines[src].Submit(big); err != nil {
					t.Fatal(err)
				}
			}
			tn.cl.Eng.Run()
			if c.straggler {
				// The sender's first RTS again, token 1, as a retry that
				// crossed the completed transfer on the wire.
				src := c.senders[0]
				big := pkt(packet.FlowID(src), 0, src, 0, 64<<10)
				big.Class = packet.ClassBulk
				rts := proto.NewRdvSender(src, func(uint64, *packet.Packet) {}).Start(big)
				tn.engines[0].onFrame(0, src, rts)
				tn.cl.Eng.Run()
			}
			if len(tn.inbox[0]) != len(c.senders) {
				t.Fatalf("delivered %d, want %d", len(tn.inbox[0]), len(c.senders))
			}
			for _, src := range c.senders {
				if got := spanTotal(tn.engines[src], SpanRdvGrant); got != 1 {
					t.Fatalf("sender %d rdv-grant samples = %d, want 1", src, got)
				}
				// The handshake stamps are consumed: the tracking maps must
				// not leak.
				if n := len(tn.engines[src].rdvStart); n != 0 {
					t.Fatalf("sender %d leaked %d rdvStart entries", src, n)
				}
			}
			if got := spanTotal(tn.engines[0], SpanRdvData); got != uint64(len(c.senders)) {
				t.Fatalf("receiver rdv-data samples = %d, want %d", got, len(c.senders))
			}
			if n := len(tn.engines[0].rdvRecvStart); n != 0 {
				t.Fatalf("receiver leaked %d rdvRecvStart entries", n)
			}
			// A granted transfer took nonzero virtual time on a wire-paced rail.
			if tn.engines[0].Spans().Total(int(SpanRdvData)).Max() <= 0 {
				t.Fatal("rdv-data span recorded zero duration")
			}
		})
	}
}

// TestMetricsIntoReusesSlices pins the satellite's contract: a scratch
// Metrics refilled per tick allocates nothing after the first fill, and
// matches the one-shot Metrics() snapshot field for field.
func TestMetricsIntoReusesSlices(t *testing.T) {
	tn := newNet(t, 2, "aggregate", nil)
	for i := 0; i < 4; i++ {
		if err := tn.engines[0].Submit(pkt(1, i, 0, 1, 64)); err != nil {
			t.Fatal(err)
		}
	}
	tn.cl.Eng.Run()
	e := tn.engines[0]

	var scratch Metrics
	e.MetricsInto(&scratch)
	rf, rd := &scratch.RailFrames[0], &scratch.RailDowns[0]
	if n := testing.AllocsPerRun(100, func() { e.MetricsInto(&scratch) }); n != 0 {
		t.Fatalf("MetricsInto allocates %v/op on a warm scratch", n)
	}
	if &scratch.RailFrames[0] != rf || &scratch.RailDowns[0] != rd {
		t.Fatal("MetricsInto regrew the caller's slices")
	}

	oneShot := e.Metrics()
	if oneShot.Submitted != scratch.Submitted || oneShot.FramesPosted != scratch.FramesPosted ||
		oneShot.Delivered != scratch.Delivered || oneShot.Bundle != scratch.Bundle ||
		len(oneShot.RailFrames) != len(scratch.RailFrames) {
		t.Fatalf("Metrics() and MetricsInto diverge: %+v vs %+v", oneShot, scratch)
	}
	for i := range oneShot.RailFrames {
		if oneShot.RailFrames[i] != scratch.RailFrames[i] {
			t.Fatalf("RailFrames[%d] diverges", i)
		}
	}
}
