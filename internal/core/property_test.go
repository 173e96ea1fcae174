package core

import (
	"testing"

	"newmad/internal/caps"
	"newmad/internal/packet"
	"newmad/internal/simnet"
	"newmad/internal/strategy"
)

// Engine-level properties that must hold for EVERY strategy bundle in the
// database, under randomized multi-flow, multi-destination, multi-size
// workloads:
//
//  1. Conservation — every submitted packet is delivered exactly once.
//  2. Connection FIFO — per (flow, destination), delivery order equals
//     submission order.
//  3. Integrity — payloads arrive unmodified.
//  4. Termination — the simulation drains (no livelock/deadlock).
func TestEveryBundleSatisfiesEngineInvariants(t *testing.T) {
	for _, bundleName := range strategy.Names() {
		bundleName := bundleName
		t.Run(bundleName, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				runInvariantWorkload(t, bundleName, seed)
			}
		})
	}
}

func runInvariantWorkload(t *testing.T, bundleName string, seed uint64) {
	t.Helper()
	const nodes = 4
	tn := newNet(t, nodes, bundleName, func(o *Options) {
		o.NagleDelay = 3 * simnet.Microsecond
		o.SearchBudget = 8
	}, singleChanMX())

	rng := simnet.NewRNG(seed)
	type conn struct {
		flow packet.FlowID
		dst  packet.NodeID
	}
	type connSeq struct {
		flow packet.FlowID
		dst  packet.NodeID
		seq  int
	}
	seqs := map[conn]int{}
	expected := map[packet.NodeID]int{}
	sums := map[connSeq]byte{}

	const total = 400
	for i := 0; i < total; i++ {
		src := packet.NodeID(rng.Intn(nodes))
		dst := packet.NodeID(rng.Intn(nodes))
		for dst == src {
			dst = packet.NodeID(rng.Intn(nodes))
		}
		flow := packet.FlowID(rng.Range(1, 6))
		k := conn{flow, dst}
		size := rng.Pareto(4, 20000, 1.2)
		p := &packet.Packet{
			Flow: flow, Msg: 1, Seq: seqs[k], Last: true,
			Src: src, Dst: dst,
			Class:   packet.ClassID(rng.Intn(int(packet.NumClasses))),
			Recv:    packet.RecvMode(rng.Intn(2)),
			Payload: make([]byte, size),
		}
		// Express packets must stay eager; large express would violate the
		// MaxAggregate frame limit assumption in some drivers, keep them
		// small like real headers.
		if p.Recv == packet.RecvExpress && size > 4096 {
			p.Payload = p.Payload[:1024]
		}
		var sum byte
		for j := range p.Payload {
			p.Payload[j] = byte(rng.Intn(256))
			sum += p.Payload[j]
		}
		// Connection-level seq counter must be per (flow, src→dst); the
		// flows here are node-scoped so include src in the key via flow
		// numbering — simplest is a per-src flow id offset.
		p.Flow = flow + packet.FlowID(int(src)*10)
		k = conn{p.Flow, dst}
		p.Seq = seqs[k]
		seqs[k]++
		sums[connSeq{p.Flow, p.Dst, p.Seq}] = sum
		expected[dst]++

		eng := tn.engines[src]
		at := simnet.Time(rng.Intn(3_000_000))
		tn.cl.Eng.At(at, "prop.submit", func() {
			if err := eng.Submit(p); err != nil {
				t.Errorf("submit: %v", err)
			}
		})
	}

	tn.cl.Eng.Run()

	// 4. Termination: Run returned. 1. Conservation per node.
	for n := 0; n < nodes; n++ {
		if len(tn.inbox[n]) != expected[packet.NodeID(n)] {
			t.Fatalf("bundle %s seed %d: node %d delivered %d of %d",
				bundleName, seed, n, len(tn.inbox[n]), expected[packet.NodeID(n)])
		}
	}
	// 2. Per-connection FIFO and 3. integrity.
	next := map[conn]int{}
	for n := 0; n < nodes; n++ {
		for _, d := range tn.inbox[n] {
			k := conn{d.Pkt.Flow, d.Pkt.Dst}
			if d.Pkt.Seq != next[k] {
				t.Fatalf("bundle %s seed %d: connection %v delivered seq %d, want %d",
					bundleName, seed, k, d.Pkt.Seq, next[k])
			}
			next[k]++
			var sum byte
			for _, b := range d.Pkt.Payload {
				sum += b
			}
			if sum != sums[connSeq{d.Pkt.Flow, d.Pkt.Dst, d.Pkt.Seq}] {
				t.Fatalf("bundle %s seed %d: payload of %v corrupted", bundleName, seed, &d.Pkt)
			}
		}
	}
}

// TestEightNodeStress runs a denser topology (8 nodes, multi-rail) to
// exercise rail selection, many reassemblers and cross-node rendezvous at
// once.
func TestEightNodeStress(t *testing.T) {
	const nodes = 8
	elan2 := caps.Elan
	elan2.Channels = 2
	tn := newNet(t, nodes, "aggregate", nil, singleChanMX(), elan2)
	rng := simnet.NewRNG(17)
	expected := map[packet.NodeID]int{}
	seqs := map[[2]int]int{}
	const total = 600
	for i := 0; i < total; i++ {
		src := rng.Intn(nodes)
		dst := rng.Intn(nodes)
		for dst == src {
			dst = rng.Intn(nodes)
		}
		key := [2]int{src, dst}
		p := pkt(packet.FlowID(src+1), seqs[key], packet.NodeID(src), packet.NodeID(dst), rng.Pareto(8, 60000, 1.3))
		if p.Size() > 8192 {
			p.Class = packet.ClassBulk
		}
		seqs[key]++
		expected[packet.NodeID(dst)]++
		eng := tn.engines[src]
		// Dense arrivals: 600 packets within 300 µs keep every rail busy.
		tn.cl.Eng.At(simnet.Time(rng.Intn(300_000)), "stress", func() {
			if err := eng.Submit(p); err != nil {
				t.Error(err)
			}
		})
	}
	tn.cl.Eng.Run()
	for n := 0; n < nodes; n++ {
		if len(tn.inbox[n]) != expected[packet.NodeID(n)] {
			t.Fatalf("node %d delivered %d of %d", n, len(tn.inbox[n]), expected[packet.NodeID(n)])
		}
	}
	// Both technologies must have carried traffic.
	if tn.cl.Stats.CounterValue("core.rail.mx.frames") == 0 ||
		tn.cl.Stats.CounterValue("core.rail.elan.frames") == 0 {
		t.Fatal("a rail sat idle through the stress run")
	}
}

// TestMixedBundlesAcrossNodes: nodes may run different strategies (the
// engine is per-node); traffic between them must still satisfy FIFO and
// conservation.
func TestMixedBundlesAcrossNodes(t *testing.T) {
	tn := newNet(t, 2, "fifo", nil, singleChanMX())
	agg, _ := strategy.New("aggregate")
	if err := tn.engines[0].SetBundle(agg); err != nil {
		t.Fatal(err)
	}
	// Node 0 aggregates, node 1 stays fifo; bidirectional traffic.
	for i := 0; i < 30; i++ {
		if err := tn.engines[0].Submit(pkt(1, i, 0, 1, 100)); err != nil {
			t.Fatal(err)
		}
		if err := tn.engines[1].Submit(pkt(2, i, 1, 0, 100)); err != nil {
			t.Fatal(err)
		}
	}
	tn.cl.Eng.Run()
	if len(tn.inbox[0]) != 30 || len(tn.inbox[1]) != 30 {
		t.Fatalf("deliveries %d/%d", len(tn.inbox[0]), len(tn.inbox[1]))
	}
	for n := 0; n < 2; n++ {
		for i, d := range tn.inbox[n] {
			if d.Pkt.Seq != i {
				t.Fatalf("node %d out of order at %d", n, i)
			}
		}
	}
}
